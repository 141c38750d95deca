package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

func streamRoundTrip(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeGraphStream(&buf, g); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeGraphStream(&buf, StreamLimits{})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

// TestStreamRoundTrip: random graphs survive the v2 round trip exactly —
// same vertex count, identifiers and sorted edge list.
func TestStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(60)
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.15 {
					g.MustAddEdge(u, v)
				}
			}
		}
		got := streamRoundTrip(t, g)
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("shape: n %d->%d m %d->%d", g.N(), got.N(), g.M(), got.M())
		}
		if g.M() > 0 && !reflect.DeepEqual(got.Edges(), g.Edges()) {
			t.Fatalf("edges differ after round trip")
		}
	}
}

// TestStreamRoundTripEmptyAndEdgeless: n=0 and edge-free graphs are valid
// streams.
func TestStreamRoundTripEmptyAndEdgeless(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		got := streamRoundTrip(t, graph.New(n))
		if got.N() != n || got.M() != 0 {
			t.Fatalf("n=%d: got n=%d m=%d", n, got.N(), got.M())
		}
	}
}

// TestStreamRoundTripCustomIDs: the custom-identifier section survives.
func TestStreamRoundTripCustomIDs(t *testing.T) {
	g, err := graph.NewWithIDs([]graph.ID{10, 42, 7})
	if err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(0, 2)
	got := streamRoundTrip(t, g)
	for v := 0; v < 3; v++ {
		if got.IDOf(v) != g.IDOf(v) {
			t.Fatalf("id %d: %d != %d", v, got.IDOf(v), g.IDOf(v))
		}
	}
	if !got.HasEdge(0, 2) {
		t.Fatal("edge lost")
	}
}

// TestStreamMultipleChunks: a graph with more edges than one chunk holds
// round-trips intact.
func TestStreamMultipleChunks(t *testing.T) {
	n := 400 // clique: ~80k edges, several chunks at 4096 per chunk
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	got := streamRoundTrip(t, g)
	if got.M() != g.M() {
		t.Fatalf("m %d -> %d", g.M(), got.M())
	}
}

// TestStreamMatchesSourceEdges: a v2 round trip reproduces the source
// graph's exact edge set, and nothing else.
func TestStreamMatchesSourceEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := graph.New(40)
	for u := 0; u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			if rng.Float64() < 0.2 {
				g.MustAddEdge(u, v)
			}
		}
	}
	got := streamRoundTrip(t, g)
	if got.N() != g.N() || !reflect.DeepEqual(got.Edges(), g.Edges()) {
		t.Fatal("v2 round trip changed the graph")
	}
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if got.HasEdge(u, v) != g.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d): decoded %v, source %v", u, v, got.HasEdge(u, v), g.HasEdge(u, v))
			}
		}
	}
}

// hostileStream builds a raw v2 payload from parts for decoder attacks.
func hostileStream(flags byte, fields ...uint64) []byte {
	out := append([]byte(nil), streamMagic[:]...)
	out = append(out, flags)
	for _, f := range fields {
		out = binary.AppendUvarint(out, f)
	}
	return out
}

// hostileStreams are malformed or hostile v2 payloads, by attack; they
// also seed FuzzDecodeGraphStream.
func hostileStreams() map[string][]byte {
	return map[string][]byte{
		"empty":             {},
		"short magic":       {'R', 'G'},
		"bad magic":         append([]byte("XXXX"), 0, 0, 0, 0),
		"unknown flags":     hostileStream(0xFE, 0, 0, 0),
		"truncated header":  hostileStream(0)[:5],
		"huge n":            hostileStream(0, 1<<40, 0, 0),
		"huge m":            hostileStream(0, 4, 1<<40, 0),
		"chunk over cap":    hostileStream(0, 4, 3, MaxStreamChunkEdges+1),
		"more than m":       hostileStream(0, 3, 1, 2, 0, 0, 0, 1, 0),
		"fewer than m":      hostileStream(0, 4, 3, 1, 0, 0, 0),
		"edge out of range": hostileStream(0, 3, 1, 1, 0, 5, 0),
		"huge delta":        hostileStream(0, 3, 1, 1, 1<<40, 0, 0),
		"truncated chunk":   hostileStream(0, 4, 3, 3, 0, 0),
		"missing ids":       hostileStream(1, 8, 0),
	}
}

// TestStreamHostileInputs: every malformed or hostile payload is
// rejected with an error, never a panic or an oversized allocation.
func TestStreamHostileInputs(t *testing.T) {
	for name, payload := range hostileStreams() {
		if _, err := DecodeGraphStream(bytes.NewReader(payload), StreamLimits{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestStreamLimitsEnforced: caller-supplied limits override the package
// defaults.
func TestStreamLimitsEnforced(t *testing.T) {
	g := graph.New(100)
	g.MustAddEdge(0, 99)
	var buf bytes.Buffer
	if err := EncodeGraphStream(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := DecodeGraphStream(bytes.NewReader(data), StreamLimits{MaxVertices: 50}); err == nil {
		t.Fatal("vertex limit not enforced")
	}
	if _, err := DecodeGraphStream(bytes.NewReader(data), StreamLimits{MaxVertices: 100, MaxEdges: 100}); err != nil {
		t.Fatalf("within limits rejected: %v", err)
	}
}

// TestStreamDuplicateUnrepresentable: the delta coding makes duplicate
// edges unrepresentable — dv such that v repeats requires a negative
// delta, which uvarints cannot carry — so a crafted repeat decodes to a
// different, strictly later edge or fails range validation instead of
// producing a duplicate.
func TestStreamDuplicateUnrepresentable(t *testing.T) {
	// Claim 2 edges, both encoded as (du=0, dv=0): decodes to (0,1), (0,2).
	payload := hostileStream(0, 3, 2, 2, 0, 0, 0, 0, 0)
	g, err := DecodeGraphStream(bytes.NewReader(payload), StreamLimits{})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 2) || g.M() != 2 {
		t.Fatalf("unexpected decode: edges %v", g.Edges())
	}
}
