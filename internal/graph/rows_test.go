package graph

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
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
	// Larger shapes: many blocks with far-apart members and one big
	// block (partial k-trees), hubs (wheels), isolated vertices among
	// several components, and a DFS 10⁵ vertices deep (a path).
	big := map[string]*Graph{
		"wheel-100":        wheelGraph(100),
		"wheel-2000":       wheelGraph(2_000),
		"components":       scatteredComponents(),
		"path-100000":      path(100_000),
		"partial-2-tree-a": partialKTree(rand.New(rand.NewSource(29)), 2_000, 2, 0.5),
		"partial-2-tree-b": partialKTree(rand.New(rand.NewSource(30)), 2_000, 2, 0.85),
		"partial-4-tree-a": partialKTree(rand.New(rand.NewSource(31)), 2_000, 4, 0.5),
		"partial-4-tree-b": partialKTree(rand.New(rand.NewSource(32)), 2_000, 4, 0.85),
	}
	for name, g := range big {
		if got, want := g.ArticulationPoints(), g.articulationPointsRef(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: articulation points diverge: %d vs %d", name, len(got), len(want))
		}
		if got, want := g.BiconnectedComponents(), g.biconnectedComponentsRef(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: biconnected components diverge: %d blocks vs %d", name, len(got), len(want))
		}
	}
}

// wheelGraph returns the wheel with the given rim: hub 0 joined to every
// vertex of the cycle 1..rim.
func wheelGraph(rim int) *Graph {
	g := New(rim + 1)
	for i := 1; i <= rim; i++ {
		g.MustAddEdge(0, i)
		g.MustAddEdge(i, i%rim+1)
	}
	return g
}

// scatteredComponents returns a 200-vertex graph with several components
// and isolated vertices between and after them: a wheel on 10..30, two
// triangles sharing vertex 50, a partial 2-tree on 100..179 and a path on
// 185..190.
func scatteredComponents() *Graph {
	g := New(200)
	for i := 11; i <= 30; i++ {
		g.MustAddEdge(10, i)
		g.MustAddEdge(i, 11+(i-10)%20)
	}
	for _, e := range [][2]int{{50, 51}, {51, 52}, {52, 50}, {50, 53}, {53, 54}, {54, 50}} {
		g.MustAddEdge(e[0], e[1])
	}
	for _, e := range partialKTree(rand.New(rand.NewSource(33)), 80, 2, 0.7).Edges() {
		g.MustAddEdge(100+e[0], 100+e[1])
	}
	for i := 185; i < 190; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// partialKTree builds a random partial k-tree on n > k vertices: a
// random k-tree (each new vertex joined to a k-clique drawn from the ones
// built so far) with each edge kept with probability keep, so it may fall
// apart into several components and isolated vertices.
func partialKTree(rng *rand.Rand, n, k int, keep float64) *Graph {
	b := NewBuilder(n)
	var cliques [][]int
	seed := make([]int, k+1)
	for i := range seed {
		seed[i] = i
		for j := 0; j < i; j++ {
			if rng.Float64() < keep {
				b.MustAddEdge(j, i)
			}
		}
	}
	for drop := range seed {
		cliques = append(cliques, slices.Delete(slices.Clone(seed), drop, drop+1))
	}
	for v := k + 1; v < n; v++ {
		c := cliques[rng.Intn(len(cliques))]
		for _, u := range c {
			if rng.Float64() < keep {
				b.MustAddEdge(u, v)
			}
		}
		for drop := range c {
			cliques = append(cliques, append(slices.Delete(slices.Clone(c), drop, drop+1), v))
		}
	}
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return g
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

// TestIDsAscending: identifier order is recorded at construction, true
// for default identifiers and identifiers handed over ascending, false
// otherwise, and kept by Builder, Clone and InducedSubgraph.
func TestIDsAscending(t *testing.T) {
	for _, c := range []struct {
		ids  []ID
		want bool
	}{
		{nil, true},
		{[]ID{1, 2, 3}, true},
		{[]ID{4, 9, 40}, true},
		{[]ID{7}, true},
		{[]ID{7, 3, 42}, false},
		{[]ID{1, 2, 4, 3}, false},
	} {
		g, err := NewWithIDs(c.ids)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBuilderWithIDs(c.ids)
		if err != nil {
			t.Fatal(err)
		}
		bg, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if g.IDsAscending() != c.want || bg.IDsAscending() != c.want || g.Clone().IDsAscending() != c.want {
			t.Fatalf("ids %v: IDsAscending = %v (builder %v), want %v", c.ids, g.IDsAscending(), bg.IDsAscending(), c.want)
		}
	}
	if !New(4).IDsAscending() || !NewBuilder(4).g.IDsAscending() {
		t.Fatal("default identifiers not ascending")
	}
	g, err := NewWithIDs([]ID{7, 3, 42, 50})
	if err != nil {
		t.Fatal(err)
	}
	if sub, _ := g.InducedSubgraph([]int{1, 2, 3}); !sub.IDsAscending() {
		t.Fatal("induced subgraph on ascending identifiers 3, 42, 50 not ascending")
	}
	if sub, _ := g.InducedSubgraph([]int{0, 1}); sub.IDsAscending() {
		t.Fatal("induced subgraph on identifiers 7, 3 ascending")
	}
}

// TestBiconnectedComponentsCpCancels: a cancelled checkpoint stops the
// block split with the checkpoint's *fault.CancelledError — in the DFS
// of a long path, and in the DFS of a clique whose walk is long even
// though it has few vertices — and an inert checkpoint returns the
// reference's blocks.
func TestBiconnectedComponentsCpCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, g := range map[string]*Graph{"path": path(3 * fault.CheckStride), "clique": clique(100)} {
		cp := fault.NewCheckpoint(ctx, "decompose")
		blocks, err := g.BiconnectedComponentsCp(&cp)
		ce, ok := fault.Cancelled(err)
		if !ok || ce.Phase != "decompose" || !errors.Is(err, context.Canceled) || blocks != nil {
			t.Fatalf("%s: %d blocks, err %v; want a decompose CancelledError", name, len(blocks), err)
		}
	}
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 40; trial++ {
		g := randomMutable(rng, 1+rng.Intn(40), []float64{0.05, 0.1, 0.3}[trial%3])
		var cp fault.Checkpoint
		got, err := g.BiconnectedComponentsCp(&cp)
		if want := g.biconnectedComponentsRef(); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("inert checkpoint: got %v (err %v), want %v\ngraph %v", got, err, want, g)
		}
	}
}

// TestInducedSortedMatchesInducedSubgraph: the one-pass copy has the
// rows of InducedSubgraph (which keeps identifiers and inserts edge by
// edge), default identifiers, and leaves the index scratch all -1 —
// after a cancelled copy too.
func TestInducedSortedMatchesInducedSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 40; trial++ {
		g := randomMutable(rng, 1+rng.Intn(50), []float64{0.05, 0.2, 0.6}[trial%3])
		local := make([]int32, g.N())
		for i := range local {
			local[i] = -1
		}
		var verts []int
		for v := 0; v < g.N(); v++ {
			if rng.Intn(3) > 0 {
				verts = append(verts, v)
			}
		}
		var cp fault.Checkpoint
		got, err := g.InducedSortedCp(&cp, verts, local)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := g.InducedSubgraph(verts)
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("n/m %d/%d, want %d/%d", got.N(), got.M(), want.N(), want.M())
		}
		for v := 0; v < got.N(); v++ {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) || got.IDOf(v) != ID(v+1) {
				t.Fatalf("vertex %d: row %v id %d, want row %v id %d", v, got.Neighbors(v), got.IDOf(v), want.Neighbors(v), v+1)
			}
		}
		if slices.ContainsFunc(local, func(x int32) bool { return x != -1 }) {
			t.Fatalf("scratch not restored: %v", local)
		}
	}

	g := path(3 * fault.CheckStride)
	local := make([]int32, g.N())
	verts := make([]int, g.N())
	for i := range local {
		local[i], verts[i] = -1, i
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cp := fault.NewCheckpoint(ctx, "decompose")
	if _, err := g.InducedSortedCp(&cp, verts, local); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled copy: err %v", err)
	}
	if slices.ContainsFunc(local, func(x int32) bool { return x != -1 }) {
		t.Fatal("scratch not restored after cancellation")
	}
}

// TestInducedSortedLooksUpLongRows: a member whose row is much longer
// than the copied set — the hub of a star with a few leaf-to-leaf edges,
// as in a block around a high-degree cut vertex — is copied by looking
// the other members up in its row; the rows must still be InducedSubgraph's.
func TestInducedSortedLooksUpLongRows(t *testing.T) {
	const leaves = 2000
	b := NewBuilder(leaves + 1)
	for i := 1; i <= leaves; i++ {
		b.MustAddEdge(0, i)
		if i%7 == 0 {
			b.MustAddEdge(i-1, i)
		}
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	local := make([]int32, g.N())
	for i := range local {
		local[i] = -1
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		verts := []int{0}
		for v := 1; v <= leaves; v++ {
			if rng.Intn(100) < 1+trial {
				verts = append(verts, v)
			}
		}
		var cp fault.Checkpoint
		got, err := g.InducedSortedCp(&cp, verts, local)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := g.InducedSubgraph(verts)
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("n/m %d/%d, want %d/%d", got.N(), got.M(), want.N(), want.M())
		}
		for v := 0; v < got.N(); v++ {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("vertex %d: row %v, want %v", v, got.Neighbors(v), want.Neighbors(v))
			}
		}
	}
}
