package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomMutable builds a graph through the mutable AddEdge path with the
// given density, deliberately inserting edges in scrambled order and
// orientation so AddEdge has to keep the rows sorted itself.
func randomMutable(rng *rand.Rand, n int, p float64) *Graph {
	g := New(n)
	type e struct{ u, v int }
	var edges []e
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, e{u, v})
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, ed := range edges {
		if rng.Intn(2) == 0 {
			g.MustAddEdge(ed.v, ed.u)
		} else {
			g.MustAddEdge(ed.u, ed.v)
		}
	}
	return g
}

// TestRowsSortedAndSymmetric: whatever the insertion order, every row is
// strictly ascending, rows are symmetric, and the row lengths account for
// every edge exactly twice.
func TestRowsSortedAndSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		g := randomMutable(rng, 1+rng.Intn(40), 0.3)
		total := 0
		for v := 0; v < g.N(); v++ {
			row := g.Neighbors(v)
			for i := 1; i < len(row); i++ {
				if row[i-1] >= row[i] {
					t.Fatalf("row %d not strictly ascending: %v", v, row)
				}
			}
			for _, w := range row {
				if _, ok := slices.BinarySearch(g.Neighbors(int(w)), int32(v)); !ok {
					t.Fatalf("edge %d-%d missing from row %d", v, w, w)
				}
			}
			if g.Degree(v) != len(row) {
				t.Fatalf("degree %d mismatch", v)
			}
			total += len(row)
		}
		if total != 2*g.M() {
			t.Fatalf("rows hold %d entries for m=%d", total, g.M())
		}
	}
}

// TestHasEdgeMatrix: HasEdge agrees with the adjacency matrix for every
// pair, on rows short enough for the linear sweep (<= 16 entries) and on
// rows long enough for the binary search.
func TestHasEdgeMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct {
		n int
		p float64
	}{{30, 0.25}, {80, 0.6}} {
		g := randomMutable(rng, tc.n, tc.p)
		if tc.p > 0.5 && g.MaxDegree() <= 16 {
			t.Fatalf("n=%d p=%v: max degree %d never reaches the binary search", tc.n, tc.p, g.MaxDegree())
		}
		want := make([][]bool, tc.n)
		for u := range want {
			want[u] = make([]bool, tc.n)
		}
		for _, e := range g.Edges() {
			want[e[0]][e[1]] = true
			want[e[1]][e[0]] = true
		}
		for u := 0; u < tc.n; u++ {
			for v := 0; v < tc.n; v++ {
				if got := g.HasEdge(u, v); got != want[u][v] {
					t.Fatalf("n=%d: HasEdge(%d,%d)=%v, want %v", tc.n, u, v, got, want[u][v])
				}
			}
		}
		for _, p := range [][2]int{{-1, 0}, {0, tc.n}, {tc.n, tc.n}} {
			if g.HasEdge(p[0], p[1]) {
				t.Fatalf("HasEdge accepted out-of-range pair %v", p)
			}
		}
	}
}

// TestBFSFromMatchesReference pins BFSFrom against the slice-adjacency
// reference across random graphs, including disconnected ones.
func TestBFSFromMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		g := randomMutable(rng, 1+rng.Intn(50), []float64{0.02, 0.1, 0.5}[trial%3])
		src := rng.Intn(g.N())
		if got, want := g.BFSFrom(src), g.bfsFromRef(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("BFSFrom(%d) diverges from reference\ngot  %v\nwant %v", src, got, want)
		}
	}
}

// TestComponentsMatchesReference pins component discovery against the
// slice reference.
func TestComponentsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		g := randomMutable(rng, 1+rng.Intn(50), []float64{0.0, 0.03, 0.15}[trial%3])
		if got, want := g.Components(), g.componentsRef(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Components diverges from reference\ngot  %v\nwant %v", got, want)
		}
	}
}

// TestStructureMatchesReference pins articulation points and biconnected
// components against the references. Both DFS walks read the same sorted
// rows, so even the order blocks pop in must agree.
func TestStructureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 40; trial++ {
		g := randomMutable(rng, 1+rng.Intn(40), []float64{0.05, 0.1, 0.3}[trial%3])
		if got, want := g.ArticulationPoints(), g.articulationPointsRef(); !reflect.DeepEqual(got, want) {
			t.Fatalf("articulation points diverge\ngot  %v\nwant %v\ngraph %v", got, want, g)
		}
		if got, want := g.BiconnectedComponents(), g.biconnectedComponentsRef(); !reflect.DeepEqual(got, want) {
			t.Fatalf("biconnected components diverge\ngot  %v\nwant %v\ngraph %v", got, want, g)
		}
	}
}

// TestBuilderMatchesMutable: the bulk Builder and the incremental
// AddEdge path produce graphs with identical edge sets, IDs and rows.
func TestBuilderMatchesMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		ref := New(n)
		b := NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.2 {
					ref.MustAddEdge(u, v)
					// Feed the builder in arbitrary orientation.
					if rng.Intn(2) == 0 {
						u, v := v, u
						if err := b.AddEdge(u, v); err != nil {
							t.Fatal(err)
						}
					} else if err := b.AddEdge(u, v); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		g, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g.Edges(), ref.Edges()) {
			t.Fatalf("edge sets differ")
		}
		if g.M() != ref.M() || g.N() != ref.N() || g.MaxID() != ref.MaxID() {
			t.Fatalf("shape differs: m %d/%d n %d/%d", g.M(), ref.M(), g.N(), ref.N())
		}
		for v := 0; v < n; v++ {
			if got, want := g.Neighbors(v), ref.Neighbors(v); !slices.Equal(got, want) {
				t.Fatalf("row %d differs: %v vs %v", v, got, want)
			}
		}
	}
}

// TestBuilderErrors: validation at AddEdge (range, self-loop) and at
// Finish (duplicates, either orientation).
func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(0, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.AddEdge(-1, 2); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := b.AddEdge(0, 3); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(); err == nil {
		t.Fatal("duplicate edge (reversed orientation) accepted at Finish")
	}
}

// TestBuilderGraphSafeToMutate: a Builder-produced graph uses one flat
// backing array with capacity-capped rows; AddEdge after Finish must
// reallocate, not clobber the next row.
func TestBuilderGraphSafeToMutate(t *testing.T) {
	b := NewBuilder(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	before := slices.Clone(g.Neighbors(1))
	g.MustAddEdge(0, 3) // grows row 0 and row 3
	if after := g.Neighbors(1); !slices.Equal(before, after) {
		t.Fatalf("inserting into row 0 clobbered row 1: %v -> %v", before, after)
	}
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 0) {
		t.Fatal("post-Finish edge missing")
	}
}

// TestBuilderWithIDs: custom IDs round-trip through the builder, and
// default IDs skip the lookup map.
func TestBuilderWithIDs(t *testing.T) {
	b, err := NewBuilderWithIDs([]ID{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxID() != 30 {
		t.Fatalf("MaxID = %d", g.MaxID())
	}
	if i, ok := g.IndexOf(20); !ok || i != 1 {
		t.Fatal("IndexOf wrong for custom IDs")
	}
	if _, ok := g.IndexOf(99); ok {
		t.Fatal("IndexOf found nonexistent ID")
	}
	if _, err := NewBuilderWithIDs([]ID{1, 1}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

// TestMaxIDFixedAtConstruction: MaxID is computed once; it reflects the
// ID set, not edge activity, and IndexOf stays correct on both the
// arithmetic (default) and map (custom) paths.
func TestMaxIDFixedAtConstruction(t *testing.T) {
	g := New(5)
	if g.MaxID() != 5 {
		t.Fatalf("default MaxID = %d, want 5", g.MaxID())
	}
	for v := 0; v < 5; v++ {
		if i, ok := g.IndexOf(ID(v + 1)); !ok || i != v {
			t.Fatalf("IndexOf(%d) != %d", v+1, v)
		}
	}
	for _, id := range []ID{0, 6, -3} {
		if _, ok := g.IndexOf(id); ok {
			t.Fatalf("IndexOf accepted out-of-range default ID %d", id)
		}
	}
	h, err := NewWithIDs([]ID{7, 3, 42})
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxID() != 42 {
		t.Fatalf("custom MaxID = %d, want 42", h.MaxID())
	}
	if i, ok := h.IndexOf(3); !ok || i != 1 {
		t.Fatal("IndexOf wrong on map path")
	}
	if _, ok := h.IndexOf(8); ok {
		t.Fatal("IndexOf found nonexistent custom ID")
	}
}
