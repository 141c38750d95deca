package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/graphgen"
)

// FuzzDecodeGraphStream feeds arbitrary bytes to the decoder POST
// /certify reads stream bodies with. It must never panic, and whatever it
// accepts must survive a re-encode round trip unchanged. Plain `go test`
// replays the seeds and the committed corpus under testdata/fuzz.
func FuzzDecodeGraphStream(f *testing.F) {
	for _, payload := range hostileStreams() {
		f.Add(payload)
	}
	var honest bytes.Buffer
	if err := EncodeGraphStream(&honest, graphgen.Cycle(12)); err != nil {
		f.Fatal(err)
	}
	f.Add(honest.Bytes())
	// Small limits keep a hostile header from costing real memory; the
	// limit checks themselves are part of what is fuzzed.
	lim := StreamLimits{MaxVertices: 1 << 12, MaxEdges: 1 << 14}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeGraphStream(bytes.NewReader(data), lim)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeGraphStream(&buf, g); err != nil {
			t.Fatalf("re-encode of an accepted graph: %v", err)
		}
		back, err := DecodeGraphStream(&buf, lim)
		if err != nil {
			t.Fatalf("re-decode of an accepted graph: %v", err)
		}
		if back.N() != g.N() || !reflect.DeepEqual(back.Edges(), g.Edges()) {
			t.Fatal("accepted graph changed across a round trip")
		}
		for v := 0; v < g.N(); v++ {
			if back.IDOf(v) != g.IDOf(v) {
				t.Fatalf("vertex %d: id %d became %d", v, g.IDOf(v), back.IDOf(v))
			}
		}
	})
}

// FuzzAssignmentFromStrings feeds arbitrary certificate lists (one
// string, split on commas) to the decoder POST /verify and /simulate read
// submitted certificates with: it accepts exactly the 0/1 strings, and
// what it accepts renders back to the input.
func FuzzAssignmentFromStrings(f *testing.F) {
	for _, seed := range []string{"", "0", "1", "0101,,1", "01x", "1,2", "\x00\xff", "11111111,0"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, joined string) {
		certs := strings.Split(joined, ",")
		a, err := AssignmentFromStrings(certs)
		valid := strings.Trim(strings.ReplaceAll(joined, ",", ""), "01") == ""
		if (err == nil) != valid {
			t.Fatalf("AssignmentFromStrings(%q): err=%v, want valid=%v", joined, err, valid)
		}
		if err != nil {
			return
		}
		if got := AssignmentToStrings(a); !reflect.DeepEqual(got, certs) {
			t.Fatalf("round trip %q -> %q", certs, got)
		}
	})
}

// FuzzGraphJSON feeds arbitrary bodies to the JSON graph decoder every
// JSON endpoint reads submitted graphs with. It must never panic; it must
// accept exactly the simple graphs (for default identifiers); and what it
// accepts must come back from GraphToJSON as the sorted input edge list,
// with nothing dropped as a duplicate.
func FuzzGraphJSON(f *testing.F) {
	f.Add([]byte(`{"n":3,"edges":[[0,1],[1,2]]}`))
	f.Add([]byte(`{"n":3,"ids":[7,3,9],"edges":[[2,0]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var j GraphJSON
		if json.Unmarshal(data, &j) != nil || j.N > 1<<12 {
			return // not a graph body, or a vertex count that costs real memory
		}
		g, err := j.ToGraph()
		if err != nil {
			if len(j.IDs) == 0 && simpleEdges(j.N, j.Edges) {
				t.Fatalf("rejected a simple graph %+v: %v", j, err)
			}
			return
		}
		want := make([][2]int, 0, len(j.Edges))
		for _, e := range j.Edges {
			want = append(want, [2]int{min(e[0], e[1]), max(e[0], e[1])})
		}
		slices.SortFunc(want, func(a, b [2]int) int {
			if a[0] != b[0] {
				return a[0] - b[0]
			}
			return a[1] - b[1]
		})
		if want = slices.Compact(want); len(want) != len(j.Edges) {
			t.Fatalf("accepted a duplicate edge in %v", j.Edges)
		}
		back := GraphToJSON(g)
		if back.N != j.N || !reflect.DeepEqual(back.Edges, want) {
			t.Fatalf("decoded %+v as n=%d edges=%v, want edges %v", j, back.N, back.Edges, want)
		}
		for v, id := range j.IDs {
			if g.IDOf(v) != id {
				t.Fatalf("vertex %d: id %d became %d", v, id, g.IDOf(v))
			}
		}
	})
}

// simpleEdges reports whether edges form a simple graph on n vertices:
// endpoints in range, no self-loops, no edge twice in either orientation.
func simpleEdges(n int, edges [][2]int) bool {
	if n < 0 {
		return false
	}
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := min(e[0], e[1]), max(e[0], e[1])
		if u < 0 || v >= n || u == v || seen[[2]int{u, v}] {
			return false
		}
		seen[[2]int{u, v}] = true
	}
	return true
}
