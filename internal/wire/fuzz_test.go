package wire

import (
	"bytes"
	"reflect"
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
