package wire

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/treewidth"
)

func sameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("size mismatch: (%d,%d) vs (%d,%d)", a.N(), a.M(), b.N(), b.M())
	}
	for v := 0; v < a.N(); v++ {
		if a.IDOf(v) != b.IDOf(v) {
			t.Fatalf("vertex %d: id %d vs %d", v, a.IDOf(v), b.IDOf(v))
		}
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d: %v vs %v", i, ae[i], be[i])
		}
	}
}

// The binary graph format (the wire-v2 stream) must round-trip
// structured and random graphs, with and without custom identifiers.
func TestGraphBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	graphs := []*graph.Graph{
		graphgen.Path(1),
		graphgen.Path(17),
		graphgen.Cycle(9),
		graphgen.Star(33),
		graphgen.RandomTree(100, rng),
	}
	custom, err := graph.NewWithIDs([]int64{7, 1000003, 42})
	if err != nil {
		t.Fatal(err)
	}
	custom.MustAddEdge(0, 1)
	custom.MustAddEdge(1, 2)
	graphs = append(graphs, custom)

	for _, g := range graphs {
		sameGraph(t, g, streamRoundTrip(t, g))
	}
}

// The binary format is compact: a path on 1024 vertices needs a few bytes
// per edge, far below a naive 32-bit-per-endpoint encoding.
func TestGraphBinaryCompact(t *testing.T) {
	g := graphgen.Path(1024)
	var buf bytes.Buffer
	if err := EncodeGraphStream(&buf, g); err != nil {
		t.Fatal(err)
	}
	naive := 8 * g.M() // bytes for two 32-bit endpoints per edge
	if buf.Len() >= naive {
		t.Fatalf("encoded %d bytes, naive is %d — format is not compact", buf.Len(), naive)
	}
}

func TestGraphBinaryErrors(t *testing.T) {
	if _, err := DecodeGraphStream(bytes.NewReader(nil), StreamLimits{}); err == nil {
		t.Fatal("decoded an empty payload")
	}
	// Truncate a valid encoding: must error, not panic or misread.
	var buf bytes.Buffer
	if err := EncodeGraphStream(&buf, graphgen.Cycle(20)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := DecodeGraphStream(bytes.NewReader(data[:len(data)/2]), StreamLimits{}); err == nil {
		t.Fatal("decoded a truncated payload")
	}
}

// JSON graph form must round-trip through encoding/json.
func TestGraphJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*graph.Graph{graphgen.Star(12), graphgen.RandomTree(50, rng)} {
		blob, err := json.Marshal(GraphToJSON(g))
		if err != nil {
			t.Fatal(err)
		}
		var j GraphJSON
		if err := json.Unmarshal(blob, &j); err != nil {
			t.Fatal(err)
		}
		got, err := j.ToGraph()
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, got)
	}
}

func TestGraphJSONErrors(t *testing.T) {
	cases := []GraphJSON{
		{N: 3, Edges: [][2]int{{0, 3}}},         // endpoint out of range
		{N: 2, Edges: [][2]int{{0, 0}}},         // self loop
		{N: 2, IDs: []int64{1, 2, 3}},           // id count mismatch
		{N: 2, IDs: []int64{5, 5}},              // duplicate ids
		{N: 3, Edges: [][2]int{{0, 1}, {0, 1}}}, // duplicate edge
		{N: 3, Edges: [][2]int{{0, 1}, {1, 0}}}, // duplicate edge, reversed
		{N: 3, Edges: [][2]int{{-1, 1}}},        // negative endpoint
		{N: 0, Edges: [][2]int{{0, 1}}},         // edge in an empty graph
		{N: -1},                                 // negative count
		{N: MaxGraphVertices + 1},               // hostile huge header
	}
	for i, j := range cases {
		if _, err := j.ToGraph(); err == nil {
			t.Fatalf("case %d: ToGraph accepted invalid input %+v", i, j)
		}
	}
}

// TestGraphJSONDescendingStar: a star listed hub-last in descending leaf
// order is the worst case for sorted-row insertion (every edge lands at
// the front of the hub's row). ToGraph builds through graph.Builder, so
// it decodes 2^18 leaves in linear time; per-edge sorted insertion would
// pay Θ(deg²) memmoves.
func TestGraphJSONDescendingStar(t *testing.T) {
	const leaves = 1 << 18
	j := GraphJSON{N: leaves + 1, Edges: make([][2]int, leaves)}
	for i := range j.Edges {
		j.Edges[i] = [2]int{leaves - i, 0}
	}
	start := time.Now()
	g, err := j.ToGraph()
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("decoding a %d-leaf star took %v, budget 1s", leaves, elapsed)
	}
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != leaves || g.Degree(0) != leaves {
		t.Fatalf("star decoded with m=%d, hub degree %d", g.M(), g.Degree(0))
	}
	row := g.Neighbors(0)
	for i, w := range row {
		if int(w) != i+1 {
			t.Fatalf("hub row not sorted at %d: %d", i, w)
		}
	}
}

// Assignments round-trip through the string form, including empty
// certificates.
func TestAssignmentRoundTrip(t *testing.T) {
	a := cert.Assignment{
		{1, 0, 1, 1, 0},
		nil,
		{0},
		{1, 1, 1, 1, 1, 1, 1, 1, 1},
	}
	strs := AssignmentToStrings(a)
	if strs[0] != "10110" || strs[1] != "" || strs[2] != "0" {
		t.Fatalf("AssignmentToStrings = %v", strs)
	}
	back, err := AssignmentFromStrings(strs)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(a) {
		t.Fatalf("decoded %d certificates, want %d", len(back), len(a))
	}
	for i := range a {
		if len(back[i]) != len(a[i]) {
			t.Fatalf("certificate %d: %d bits, want %d", i, len(back[i]), len(a[i]))
		}
		for j := range a[i] {
			if back[i][j] != a[i][j] {
				t.Fatalf("certificate %d bit %d: %d, want %d", i, j, back[i][j], a[i][j])
			}
		}
	}
}

func TestAssignmentErrors(t *testing.T) {
	if _, err := AssignmentFromStrings([]string{"01x"}); err == nil {
		t.Fatal("accepted a non-bit character")
	}
	if _, err := AssignmentFromStrings([]string{"01", "1 0"}); err == nil {
		t.Fatal("accepted a space inside a certificate")
	}
}

// A binary graph claiming custom identifiers it does not carry must be
// rejected, not trusted.
func TestGraphHostileIDCount(t *testing.T) {
	payload := hostileStream(1, 1<<16, 0) // custom ids flag, n, m — and no ids
	if _, err := DecodeGraphStream(bytes.NewReader(payload), StreamLimits{}); err == nil {
		t.Fatal("decoded a graph whose id count exceeds the payload")
	}
}

// Generator specs must build the families the CLI and server advertise,
// deterministically per seed.
func TestGeneratorSpec(t *testing.T) {
	for _, kind := range GeneratorKinds() {
		spec := GeneratorSpec{Kind: kind, N: 24, T: 3, Seed: 9}
		g, witness, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g.N() != 24 {
			t.Fatalf("%s: n = %d, want 24", kind, g.N())
		}
		if (kind == "random-td") != (witness.Model != nil) {
			t.Fatalf("%s: model witness presence wrong", kind)
		}
		wantDecomp := kind == "k-tree" || kind == "partial-k-tree"
		if wantDecomp != (witness.Decomp != nil) {
			t.Fatalf("%s: decomposition witness presence wrong", kind)
		}
		if witness.Model != nil {
			m, err := witness.Model(g)
			if err != nil {
				t.Fatalf("%s: model witness: %v", kind, err)
			}
			if m == nil {
				t.Fatalf("%s: model witness returned nil", kind)
			}
		}
		if witness.Decomp != nil {
			d, err := witness.Decomp(g)
			if err != nil {
				t.Fatalf("%s: decomposition witness: %v", kind, err)
			}
			if err := treewidth.Validate(g, d); err != nil {
				t.Fatalf("%s: decomposition witness invalid: %v", kind, err)
			}
			if d.Width() > spec.T {
				t.Fatalf("%s: witness width %d exceeds k=%d", kind, d.Width(), spec.T)
			}
		}
		// Same seed, same graph.
		g2, _, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, g, g2)
	}
	bad := []GeneratorSpec{
		{Kind: "nope", N: 5},
		{Kind: "path", N: 0},
		{Kind: "random-td", N: 10, T: 0},
		{Kind: "path", N: 1 << 21},
		{Kind: "k-tree", N: 10, T: 0},
		{Kind: "partial-k-tree", N: 3, T: 3},
		// Implied edge count beyond the cap: a hostile clique size must be
		// rejected before any construction.
		{Kind: "k-tree", N: 1 << 20, T: 1<<20 - 1},
		{Kind: "partial-k-tree", N: 1 << 16, T: 1 << 10},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, spec)
		}
		if _, _, err := spec.Build(); err == nil {
			t.Fatalf("case %d: Build accepted %+v", i, spec)
		}
	}
}

// The decomposition wire format round-trips and rejects hostile shapes.
func TestDecompositionRoundTrip(t *testing.T) {
	g, witness, err := GeneratorSpec{Kind: "partial-k-tree", N: 20, T: 2, Seed: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, err := witness.Decomp(g)
	if err != nil {
		t.Fatal(err)
	}
	j := DecompositionToJSON(d)
	if len(j.Edges) != d.NumTreeEdges() {
		t.Fatalf("JSON has %d edges, want %d", len(j.Edges), d.NumTreeEdges())
	}
	back, err := j.ToDecomposition()
	if err != nil {
		t.Fatal(err)
	}
	if err := treewidth.Validate(g, back); err != nil {
		t.Fatalf("JSON round trip lost validity: %v", err)
	}
	if back.Width() != d.Width() || back.NumBags() != d.NumBags() {
		t.Fatalf("JSON round trip changed shape: width %d/%d bags %d/%d",
			back.Width(), d.Width(), back.NumBags(), d.NumBags())
	}
}

func TestDecompositionHostileHeaders(t *testing.T) {
	if _, err := (DecompositionJSON{}).ToDecomposition(); err == nil {
		t.Fatal("empty JSON decomposition accepted")
	}
	if _, err := (DecompositionJSON{Bags: [][]int{{0}}, Edges: [][2]int{{0, 5}}}).ToDecomposition(); err == nil {
		t.Fatal("out-of-range JSON tree edge accepted")
	}
}
