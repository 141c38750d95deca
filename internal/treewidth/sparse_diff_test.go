package treewidth

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/graphgen"
)

// randomGraphForDiff builds a random graph with the given edge density.
func randomGraphForDiff(rng *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// bitsetDecomp and sparseDecomp run one elimination engine into a
// builder of their own and link the run, as minScoreDecomp does for the
// engine eliminate picks: the decomposition, the order and the width.
func bitsetDecomp(g *graph.Graph, score heuristicScore) (*Decomposition, []int, int, error) {
	return engineDecomp(g, func(b *decompBuilder) (int, error) {
		return runHeuristic(context.Background(), g, score, b)
	})
}

func sparseDecomp(g *graph.Graph, score heuristicScore, forceCounts bool) (*Decomposition, []int, int, error) {
	return engineDecomp(g, func(b *decompBuilder) (int, error) {
		return runSparse(context.Background(), g, score, forceCounts, b)
	})
}

func engineDecomp(g *graph.Graph, run func(*decompBuilder) (int, error)) (*Decomposition, []int, int, error) {
	n := g.N()
	b := newDecompBuilder(n, g.M())
	width, err := run(b)
	if err != nil {
		return nil, nil, 0, err
	}
	b.link(0, n, make([]int32, n))
	order := make([]int, n)
	for i, v := range b.order {
		order[i] = int(v)
	}
	return b.finish(), order, width, nil
}

// TestSparseMatchesBitset pins the sparse sorted-slice engine to the
// dense bitset engine: identical elimination order, bags, width and
// decomposition tree on random graphs across densities, for both
// scores. This is the contract that makes the engine dispatch a pure
// performance decision.
func TestSparseMatchesBitset(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, score := range []heuristicScore{scoreDegree, scoreFill} {
		for trial := 0; trial < 60; trial++ {
			n := 2 + rng.Intn(60)
			p := []float64{0.05, 0.15, 0.4, 0.8}[trial%4]
			g := randomGraphForDiff(rng, n, p)
			wantD, wantOrder, wantWidth, err := bitsetDecomp(g, score)
			if err != nil {
				t.Fatalf("score %d %v: bitset engine: %v", score, g, err)
			}
			gotD, gotOrder, gotWidth, err := sparseDecomp(g, score, false)
			if err != nil {
				t.Fatalf("score %d %v: sparse engine: %v", score, g, err)
			}
			if !reflect.DeepEqual(wantOrder, gotOrder) {
				t.Fatalf("score %d %v: order mismatch\nbitset: %v\nsparse: %v", score, g, wantOrder, gotOrder)
			}
			if !reflect.DeepEqual(wantD.Bags, gotD.Bags) {
				t.Fatalf("score %d %v: bags mismatch\nbitset: %v\nsparse: %v", score, g, wantD.Bags, gotD.Bags)
			}
			if !reflect.DeepEqual(wantD.Adj, gotD.Adj) {
				t.Fatalf("score %d %v: tree mismatch\nbitset: %v\nsparse: %v", score, g, wantD.Adj, gotD.Adj)
			}
			if wantWidth != gotWidth {
				t.Fatalf("score %d %v: width %d vs %d", score, g, wantWidth, gotWidth)
			}
		}
	}
	// Hub-heavy graphs, too big for the random corpus above to reach:
	// eliminating a hub's neighbours leaves dead entries in its row until
	// the row is compacted.
	for _, c := range hubGraphs(t) {
		for _, score := range []heuristicScore{scoreDegree, scoreFill} {
			wantD, wantOrder, wantWidth, err := bitsetDecomp(c.g, score)
			if err != nil {
				t.Fatalf("%s score %d: bitset engine: %v", c.name, score, err)
			}
			gotD, gotOrder, gotWidth, err := sparseDecomp(c.g, score, false)
			if err != nil {
				t.Fatalf("%s score %d: sparse engine: %v", c.name, score, err)
			}
			if !reflect.DeepEqual(wantOrder, gotOrder) || wantWidth != gotWidth ||
				!reflect.DeepEqual(wantD.Bags, gotD.Bags) || !reflect.DeepEqual(wantD.Adj, gotD.Adj) {
				t.Fatalf("%s score %d: sparse engine diverges from the bitset engine (width %d vs %d)",
					c.name, score, wantWidth, gotWidth)
			}
		}
	}
}

// hubCase is one named input of the hub-heavy corpus.
type hubCase struct {
	name string
	g    *graph.Graph
}

// hubGraphs are hub-heavy inputs that the sparse engine runs and the
// bitset engine can still check (129 <= n <= MaxDenseVertices): wheels,
// fans (a hub joined to a path) and a hub joined to a partial 2-tree,
// with the hub first or last in index order.
func hubGraphs(tb testing.TB) []hubCase {
	tb.Helper()
	return []hubCase{
		{"wheel-128", wheel(tb, 128)},
		{"wheel-2000", wheel(tb, 2_000)},
		{"fan-1000", hubPath(tb, 1_000)},
		{"fan-4095", hubPath(tb, 4_095)},
		{"hub-partial-2-tree-3000", hubPartial2Tree(tb, 3_000, 4)},
	}
}

// wheel returns the wheel with the given rim: hub 0 joined to every
// vertex of the cycle 1..rim.
func wheel(tb testing.TB, rim int) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder(rim + 1)
	for i := 1; i <= rim; i++ {
		b.MustAddEdge(0, i)
		b.MustAddEdge(i, i%rim+1)
	}
	g, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// hubPartial2Tree returns a partial 2-tree on vertices 0..n-2 plus a hub,
// vertex n-1, joined to every one of them.
func hubPartial2Tree(tb testing.TB, n int, seed int64) *graph.Graph {
	tb.Helper()
	base, _ := graphgen.PartialKTree(n-1, 2, 0.85, rand.New(rand.NewSource(seed)))
	b := graph.NewBuilder(n)
	for _, e := range base.Edges() {
		b.MustAddEdge(e[0], e[1])
	}
	for v := 0; v < n-1; v++ {
		b.MustAddEdge(v, n-1)
	}
	g, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestSparseRowsStayCompact steps the sparse engine, as runSparse does,
// and after every elimination checks every live row: its live entries
// ascend and number exactly the vertex's degree, and the whole row, dead
// entries included, holds at most 2·deg entries. A row is compacted once
// its dead entries outnumber its live ones, so the bound has no additive
// slack. The steps must also eliminate in runSparse's order. The sweep
// costs O(n+m) per step, so it runs on the hub-heavy corpus up to 3,000
// vertices under both scores, and on a 5,000-vertex partial 4-tree under
// min-degree, the score the engine runs on the giant block of such
// graphs.
func TestSparseRowsStayCompact(t *testing.T) {
	type stepCase struct {
		hubCase
		scores []heuristicScore
	}
	var cases []stepCase
	for _, c := range hubGraphs(t) {
		if c.g.N() <= 3_000 {
			cases = append(cases, stepCase{c, []heuristicScore{scoreDegree, scoreFill}})
		}
	}
	pk, _ := graphgen.PartialKTree(5_000, 4, 0.85, rand.New(rand.NewSource(5)))
	cases = append(cases, stepCase{hubCase{"partial-4-tree-5000", pk}, []heuristicScore{scoreDegree}})
	for _, c := range cases {
		for _, score := range c.scores {
			_, want, _, err := sparseDecomp(c.g, score, false)
			if err != nil {
				t.Fatal(err)
			}
			var cp fault.Checkpoint
			st, err := newElimSparseCp(&cp, c.g, score == scoreFill)
			if err != nil {
				t.Fatal(err)
			}
			vals := st.deg
			if score == scoreFill {
				vals = st.fill
			}
			q, err := newVertexHeapCp(&cp, vals)
			if err != nil {
				t.Fatal(err)
			}
			live := make([]int, st.n) // the live vertices, in index order
			for u := range live {
				live[u] = u
			}
			dead := false
			for step := 0; st.left > 0; step++ {
				v := q.pop()
				if v != want[step] {
					t.Fatalf("%s score %d step %d: popped %d, runSparse eliminated %d", c.name, score, step, v, want[step])
				}
				st.live(v)
				st.eliminate(v)
				for _, u := range st.touched {
					q.update(u, int64(vals[u]))
				}
				i, _ := slices.BinarySearch(live, v)
				live = slices.Delete(live, i, i+1)
				for _, u := range live {
					row, k, prev := st.nbr[u], 0, int32(-1)
					for _, w := range row {
						if w <= prev {
							t.Fatalf("%s score %d step %d: row %d not ascending: %v", c.name, score, step, u, row)
						}
						prev = w
						if st.alive[w] {
							k++
						}
					}
					if k != st.deg[u] || len(row) > 2*st.deg[u] {
						t.Fatalf("%s score %d step %d: row %d holds %d entries, %d live, degree %d",
							c.name, score, step, u, len(row), k, st.deg[u])
					}
					dead = dead || len(row) > k
				}
			}
			if !dead {
				t.Errorf("%s score %d: no row ever held a dead entry", c.name, score)
			}
		}
	}
}

// TestSparseMatchesReference pins the sparse engine directly to the
// executable map-based specification, independent of the bitset engine,
// and the builder's linking to the original linker, which chains the
// components of a disconnected graph through the next bag.
func TestSparseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, score := range []heuristicScore{scoreDegree, scoreFill} {
		for trial := 0; trial < 30; trial++ {
			g := randomGraphForDiff(rng, 2+rng.Intn(40), 0.25)
			wantD, wantOrder, wantWidth := runHeuristicReference(g, score)
			gotD, gotOrder, gotWidth, err := sparseDecomp(g, score, false)
			if err != nil {
				t.Fatalf("score %d %v: sparse engine: %v", score, g, err)
			}
			if !reflect.DeepEqual(wantOrder, gotOrder) || wantWidth != gotWidth ||
				!reflect.DeepEqual(wantD.Bags, gotD.Bags) || !reflect.DeepEqual(wantD.Adj, gotD.Adj) {
				t.Fatalf("score %d %v: sparse diverges from reference", score, g)
			}
		}
	}
}

// TestSparseFillGateKeepsOrder pins the fill-in gate: min-degree on the
// sparse engine without fill-in counts (the production setting) and
// with them forced on must produce the identical elimination order,
// bags, tree and width, on the random-graph corpus and on partial
// 4-trees up to n=20,000, whose hubs make the counts most expensive.
func TestSparseFillGateKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var cases []*graph.Graph
	for trial := 0; trial < 60; trial++ {
		cases = append(cases, randomGraphForDiff(rng, 2+rng.Intn(60), []float64{0.05, 0.15, 0.4, 0.8}[trial%4]))
	}
	for _, n := range []int{200, 2_000, 20_000} {
		g, _ := graphgen.PartialKTree(n, 4, 0.85, rand.New(rand.NewSource(int64(n))))
		cases = append(cases, g)
	}
	for _, g := range cases {
		wantD, wantOrder, wantWidth, err := sparseDecomp(g, scoreDegree, true)
		if err != nil {
			t.Fatalf("n=%d: counts on: %v", g.N(), err)
		}
		gotD, gotOrder, gotWidth, err := sparseDecomp(g, scoreDegree, false)
		if err != nil {
			t.Fatalf("n=%d: counts off: %v", g.N(), err)
		}
		if !reflect.DeepEqual(wantOrder, gotOrder) {
			t.Fatalf("n=%d: order differs without fill-in counts", g.N())
		}
		if !reflect.DeepEqual(wantD.Bags, gotD.Bags) || !reflect.DeepEqual(wantD.Adj, gotD.Adj) {
			t.Fatalf("n=%d: decomposition differs without fill-in counts", g.N())
		}
		if wantWidth != gotWidth {
			t.Fatalf("n=%d: width %d with counts, %d without", g.N(), wantWidth, gotWidth)
		}
	}
}

// TestHeuristicGolden pins HeuristicCtx's output to fingerprints
// recorded before the code they cover was optimised or restructured:
// FNV-64a over fmt.Sprint(d.Bags, d.Adj). Certificates are derived from
// these decompositions, so a change that moves a single bag or tree edge
// changes certificates. The partial 4-tree rows are the certbench graph
// shape, PartialKTree(n, 4, 0.85): at n=5,000 every block runs the
// min-fill vs min-degree contest, while n=40,000 and n=100,000 each have
// one block above largeBlockMinDegreeOnly, which runs min-degree alone.
// The last three rows cover the rest of the block assembly above the
// split threshold: a shuffled union of partial 2-, 3- and 4-trees with
// 300 isolated vertices (component chaining), 2,500 triangles sharing
// one vertex (2,500 blocks glued at one cut vertex), and a wheel (one
// block spanning the graph, eliminated on the graph itself).
func TestHeuristicGolden(t *testing.T) {
	for _, c := range []struct {
		name   string
		g      func() *graph.Graph
		giant  bool // one block above largeBlockMinDegreeOnly
		method string
		width  int
		hash   uint64
	}{
		{"partial-4-tree-5k-1", partialKTreeGolden(5_000, 1), false, "blocks", 5, 0x0fa85d3619f2acd7},
		{"partial-4-tree-5k-2", partialKTreeGolden(5_000, 2), false, "blocks", 5, 0x088646587e72ff89},
		{"partial-4-tree-40k-1", partialKTreeGolden(40_000, 1), true, "blocks", 5, 0x2d138c1ec2e061b8},
		{"partial-4-tree-40k-2", partialKTreeGolden(40_000, 2), true, "blocks", 5, 0x1d033ae903a434e3},
		{"partial-4-tree-100k-1", partialKTreeGolden(100_000, 1), true, "blocks", 5, 0x7935576efcc52400},
		{"partial-4-tree-100k-2", partialKTreeGolden(100_000, 2), true, "blocks", 5, 0xe25067f47becfa65},
		{"shuffled-forest", func() *graph.Graph { return shuffledForest(t) }, false, "blocks", 5, 0x97453687e7c9c520},
		{"triangle-star-2500", func() *graph.Graph { return triangleStar(t, 2_500) }, false, "blocks", 2, 0xeefa54be35c15a0a},
		{"wheel-5000", func() *graph.Graph { return wheel(t, 5_000) }, false, "min-fill", 3, 0xaf18618fc2c26e6d},
	} {
		if strings.HasPrefix(c.name, "partial-4-tree-100k") && testing.Short() {
			continue
		}
		g := c.g()
		giant := false
		for _, b := range g.BiconnectedComponents() {
			giant = giant || len(b) > largeBlockMinDegreeOnly
		}
		if giant != c.giant {
			t.Fatalf("%s: giant block %v, want %v", c.name, giant, c.giant)
		}
		d, method, err := HeuristicCtx(context.Background(), g)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := fnv.New64a()
		fmt.Fprint(h, d.Bags, d.Adj)
		if got := h.Sum64(); got != c.hash || method != c.method || d.Width() != c.width {
			t.Errorf("%s: fingerprint %016x method %s width %d, want %016x %s %d",
				c.name, got, method, d.Width(), c.hash, c.method, c.width)
		}
	}
}

// partialKTreeGolden returns the constructor of TestHeuristicGolden's
// partial 4-tree rows.
func partialKTreeGolden(n int, seed int64) func() *graph.Graph {
	return func() *graph.Graph {
		g, _ := graphgen.PartialKTree(n, 4, 0.85, rand.New(rand.NewSource(seed)))
		return g
	}
}

// shuffledForest returns partial 2-, 3- and 4-trees of 1,500, 2,000 and
// 2,500 vertices (the first keeping few enough edges to split into
// hundreds of blocks) and 300 isolated vertices, all relabelled by one
// seeded permutation, so components and isolated vertices interleave in
// index order.
func shuffledForest(tb testing.TB) *graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(17))
	var parts []*graph.Graph
	for _, p := range []struct {
		n, k int
		keep float64
	}{{1_500, 2, 0.6}, {2_000, 3, 0.85}, {2_500, 4, 0.85}} {
		g, _ := graphgen.PartialKTree(p.n, p.k, p.keep, rng)
		parts = append(parts, g)
	}
	n := 1_500 + 2_000 + 2_500 + 300
	perm := rng.Perm(n)
	b := graph.NewBuilder(n)
	base := 0
	for _, p := range parts {
		for _, e := range p.Edges() {
			b.MustAddEdge(perm[base+e[0]], perm[base+e[1]])
		}
		base += p.N()
	}
	g, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// triangleStar returns k triangles sharing vertex 0: triangle i is
// {0, 2i+1, 2i+2}.
func triangleStar(tb testing.TB, k int) *graph.Graph {
	tb.Helper()
	b := graph.NewBuilder(2*k + 1)
	for i := 0; i < k; i++ {
		a, c := 2*i+1, 2*i+2
		b.MustAddEdge(0, a)
		b.MustAddEdge(0, c)
		b.MustAddEdge(a, c)
	}
	g, err := b.Finish()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestSparseBitsetAcrossBoundary runs both engines on partial k-trees
// just below and just above the former n=8192 cap: the cap is gone, and
// the engines stay order-identical on either side of it.
func TestSparseBitsetAcrossBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("boundary graphs are slow under -short")
	}
	for _, n := range []int{MaxDenseVertices - 2, MaxDenseVertices + 8} {
		g, _ := graphgen.PartialKTree(n, 3, 0.7, rand.New(rand.NewSource(int64(n))))
		wantD, wantOrder, wantWidth, err := bitsetDecomp(g, scoreDegree)
		if err != nil {
			t.Fatalf("n=%d: bitset engine: %v", n, err)
		}
		gotD, gotOrder, gotWidth, err := sparseDecomp(g, scoreDegree, false)
		if err != nil {
			t.Fatalf("n=%d: sparse engine: %v", n, err)
		}
		if !reflect.DeepEqual(wantOrder, gotOrder) || wantWidth != gotWidth {
			t.Fatalf("n=%d: engines diverge (width %d vs %d)", n, wantWidth, gotWidth)
		}
		if !reflect.DeepEqual(wantD.Bags, gotD.Bags) {
			t.Fatalf("n=%d: bag mismatch", n)
		}
	}
}

// TestHeuristicsAboveFormerCap verifies the public entry points accept
// graphs beyond the old 8192 limit and produce valid decompositions.
func TestHeuristicsAboveFormerCap(t *testing.T) {
	if testing.Short() {
		t.Skip("large graph under -short")
	}
	n := MaxDenseVertices + 1000
	g, _ := graphgen.PartialKTree(n, 4, 0.8, rand.New(rand.NewSource(7)))
	for name, run := range map[string]func(context.Context, *graph.Graph) (*Decomposition, []int, int, error){
		"min-degree": MinDegreeCtx,
		"min-fill":   MinFillCtx,
	} {
		d, order, width, err := run(context.Background(), g)
		if err != nil {
			t.Fatalf("%s rejected n=%d: %v", name, n, err)
		}
		if len(order) != n {
			t.Fatalf("%s: order has %d entries", name, len(order))
		}
		if width < 1 || width > 64 {
			t.Fatalf("%s: implausible width %d for a partial 4-tree", name, width)
		}
		if err := Validate(g, d); err != nil {
			t.Fatalf("%s: invalid decomposition: %v", name, err)
		}
	}
}

// TestDecomposeBlocksMatchesReference holds the block split's one
// decomposition builder to the original assembly
// (decomposeBlocksReference: one decomposition per piece on the
// reference elimination, offset concatenation, glue, and chaining by a
// search from bag 0), bag for bag and tree row for tree row, on
// connected, disconnected and block-rich graphs split below the size
// where HeuristicCtx would split them. Every result must be valid, and a
// repeat run must give the same decomposition.
func TestDecomposeBlocksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []*graph.Graph{}
	// Partial k-trees: bridge-rich once edges are dropped.
	for _, n := range []int{30, 200, 900} {
		g, _ := graphgen.PartialKTree(n, 3, 0.5, rng)
		cases = append(cases, g)
	}
	// A pure k-tree: one biconnected block spanning the graph.
	kg, _ := graphgen.KTree(120, 4, rng)
	cases = append(cases, kg)
	// Disconnected: random graph plus isolated vertices, and isolated
	// vertices alone.
	dg := graph.New(80)
	for u := 0; u < 50; u++ {
		for v := u + 1; v < 50; v++ {
			if rng.Float64() < 0.1 {
				dg.MustAddEdge(u, v)
			}
		}
	}
	cases = append(cases, dg, graph.New(5))
	// Star of triangles: many blocks through one cut vertex.
	cases = append(cases, triangleStar(t, 20))
	// Disconnected and block-rich under shuffled indices: partial 2-trees
	// joined with isolated vertices and relabelled.
	for trial := 0; trial < 6; trial++ {
		n := 40 + rng.Intn(160)
		base, _ := graphgen.PartialKTree(n, 2, 0.55, rng)
		perm := rng.Perm(n + 10)
		b := graph.NewBuilder(n + 10)
		for _, e := range base.Edges() {
			b.MustAddEdge(perm[e[0]], perm[e[1]])
		}
		g, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, g)
	}

	for ci, g := range cases {
		blocks := g.BiconnectedComponents()
		want := decomposeBlocksReference(g, blocks)
		var first *Decomposition
		for run := 0; run < 2; run++ {
			d, method, err := decomposeBlocks(context.Background(), g, blocks)
			if err != nil {
				t.Fatalf("case %d: %v", ci, err)
			}
			if method == "" {
				t.Fatalf("case %d: empty method", ci)
			}
			if err := Validate(g, d); err != nil {
				t.Fatalf("case %d: invalid: %v", ci, err)
			}
			if !reflect.DeepEqual(want.Bags, d.Bags) || !reflect.DeepEqual(want.Adj, d.Adj) {
				t.Fatalf("case %d (n=%d, %d blocks): assembly differs from the reference\nwant %v %v\ngot  %v %v",
					ci, g.N(), len(blocks), want.Bags, want.Adj, d.Bags, d.Adj)
			}
			if first == nil {
				first = d
			} else if !reflect.DeepEqual(first.Bags, d.Bags) || !reflect.DeepEqual(first.Adj, d.Adj) {
				t.Fatalf("case %d: a repeat run differs", ci)
			}
		}
	}
}

// TestDegeneracyBucketQueue cross-checks the bucket-queue peeling
// against a quadratic reference on random graphs.
func TestDegeneracyBucketQueue(t *testing.T) {
	degeneracyRef := func(g *graph.Graph) int {
		n := g.N()
		deg := make([]int, n)
		alive := make([]bool, n)
		for v := 0; v < n; v++ {
			deg[v] = g.Degree(v)
			alive[v] = true
		}
		degen := 0
		for left := n; left > 0; left-- {
			best := -1
			for v := 0; v < n; v++ {
				if alive[v] && (best == -1 || deg[v] < deg[best]) {
					best = v
				}
			}
			if deg[best] > degen {
				degen = deg[best]
			}
			alive[best] = false
			for _, w := range g.Neighbors(best) {
				if alive[w] {
					deg[w]--
				}
			}
		}
		return degen
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		g := randomGraphForDiff(rng, 1+rng.Intn(50), []float64{0.05, 0.2, 0.6}[trial%3])
		if got, want := Degeneracy(g), degeneracyRef(g); got != want {
			t.Fatalf("%v: degeneracy %d, reference %d", g, got, want)
		}
	}
}
