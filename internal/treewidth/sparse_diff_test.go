package treewidth

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

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
			wantD, wantOrder, wantWidth, err := runHeuristic(context.Background(), g, score)
			if err != nil {
				t.Fatalf("score %d %v: bitset engine: %v", score, g, err)
			}
			gotD, gotOrder, gotWidth, err := runHeuristicSparse(context.Background(), g, score)
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
}

// TestSparseMatchesReference pins the sparse engine directly to the
// executable map-based specification, independent of the bitset engine.
func TestSparseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, score := range []heuristicScore{scoreDegree, scoreFill} {
		for trial := 0; trial < 30; trial++ {
			g := randomGraphForDiff(rng, 2+rng.Intn(40), 0.25)
			wantD, wantOrder, wantWidth := runHeuristicReference(g, score)
			gotD, gotOrder, gotWidth, err := runHeuristicSparse(context.Background(), g, score)
			if err != nil {
				t.Fatalf("score %d %v: sparse engine: %v", score, g, err)
			}
			if !reflect.DeepEqual(wantOrder, gotOrder) || wantWidth != gotWidth ||
				!reflect.DeepEqual(wantD.Bags, gotD.Bags) {
				t.Fatalf("score %d %v: sparse diverges from reference", score, g)
			}
		}
	}
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
		wantD, wantOrder, wantWidth, err := runHeuristic(context.Background(), g, scoreDegree)
		if err != nil {
			t.Fatalf("n=%d: bitset engine: %v", n, err)
		}
		gotD, gotOrder, gotWidth, err := runHeuristicSparse(context.Background(), g, scoreDegree)
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

// TestHeuristicParallelValid checks the parallel driver end to end:
// valid decompositions on connected, disconnected and block-rich
// graphs, deterministic across repeat runs and worker counts.
func TestHeuristicParallelValid(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []*graph.Graph{}
	// Partial k-trees: bridge-rich once edges are dropped.
	for _, n := range []int{30, 200, 900} {
		g, _ := graphgen.PartialKTree(n, 3, 0.5, rng)
		cases = append(cases, g)
	}
	// A pure k-tree: one biconnected block, exercises the direct path.
	kg, _ := graphgen.KTree(120, 4, rng)
	cases = append(cases, kg)
	// Disconnected: random graph plus isolated vertices.
	dg := graph.New(80)
	for u := 0; u < 50; u++ {
		for v := u + 1; v < 50; v++ {
			if rng.Float64() < 0.1 {
				dg.MustAddEdge(u, v)
			}
		}
	}
	cases = append(cases, dg)
	// Star of triangles: many blocks through one cut vertex.
	sg := graph.New(41)
	for i := 0; i < 20; i++ {
		a, b := 1+2*i, 2+2*i
		sg.MustAddEdge(0, a)
		sg.MustAddEdge(0, b)
		sg.MustAddEdge(a, b)
	}
	cases = append(cases, sg)

	for ci, g := range cases {
		var first *Decomposition
		for _, workers := range []int{1, 4} {
			d, method, err := heuristicParallel(context.Background(), g, workers)
			if err != nil {
				t.Fatalf("case %d workers %d: %v", ci, workers, err)
			}
			if method == "" {
				t.Fatalf("case %d: empty method", ci)
			}
			if err := Validate(g, d); err != nil {
				t.Fatalf("case %d workers %d: invalid: %v", ci, workers, err)
			}
			if first == nil {
				first = d
			} else if !reflect.DeepEqual(first.Bags, d.Bags) || !reflect.DeepEqual(first.Adj, d.Adj) {
				t.Fatalf("case %d: result depends on worker count", ci)
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
