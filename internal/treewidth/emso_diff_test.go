package treewidth

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
)

// bookGraph returns the "book" B_k — an edge {0,1} shared by k triangles —
// together with a decomposition whose spine bag {0,1} has all k triangle
// bags as children. MakeNice folds those children through k-1 binary
// joins, which makes the pair the join-heaviest shape the DP meets.
func bookGraph(k int) (*graph.Graph, *Decomposition) {
	g := graph.New(2 + k)
	g.MustAddEdge(0, 1)
	d := &Decomposition{
		Bags: [][]int{{0, 1}},
		Adj:  make([][]int, 1+k),
	}
	for i := 0; i < k; i++ {
		w := 2 + i
		g.MustAddEdge(0, w)
		g.MustAddEdge(1, w)
		d.Bags = append(d.Bags, []int{0, 1, w})
		d.Adj[0] = append(d.Adj[0], 1+i)
		d.Adj[1+i] = append(d.Adj[1+i], 0)
	}
	return g, d
}

// TestSolveEMSODifferential drives the table-driven engine against the
// retained map-based reference over random (graph, sentence, seed)
// triples — including width-0/single-vertex instances and join-heavy
// decompositions — and requires identical verdicts and identical
// extracted witness words.
func TestSolveEMSODifferential(t *testing.T) {
	sentences := []logic.Formula{
		logic.TrueSentence(),
		logic.TwoColorable(),
		logic.ThreeColorable(),
		logic.TriangleFree(),
		logic.MustParse("existsset S. forall x. forall y. x ~ y -> !(x in S & y in S)"),
	}
	type instance struct {
		name string
		g    *graph.Graph
		d    *Decomposition
	}
	var instances []instance
	single := graph.New(1)
	dSingle := &Decomposition{Bags: [][]int{{0}}, Adj: [][]int{nil}}
	instances = append(instances, instance{"single-vertex", single, dSingle})
	for _, k := range []int{2, 5, 9} {
		g, d := bookGraph(k)
		instances = append(instances, instance{fmt.Sprintf("book-%d", k), g, d})
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(20)
		kk := 1 + rng.Intn(3)
		g, _ := graphgen.PartialKTree(n, kk, 0.3+0.5*rng.Float64(), rng)
		d, _, err := HeuristicCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, instance{fmt.Sprintf("partial-%d-tree-seed%d", kk, seed), g, d})
	}
	// Wide-bag instance: K_{25,25} has treewidth 25, so its heuristic
	// decomposition carries bags of 24+ vertices. Sentences without set
	// variables (tw-bound, triangle-free) keep the DP's state count at 1
	// regardless of width, so the engine must survive arbitrary bag sizes
	// — this pins a crash where the adjacency-pair bitmap was fixed-size.
	wide := graph.New(50)
	for i := 0; i < 25; i++ {
		for j := 25; j < 50; j++ {
			wide.MustAddEdge(i, j)
		}
	}
	wideD, _, err := HeuristicCtx(context.Background(), wide)
	if err != nil {
		t.Fatal(err)
	}
	instances = append(instances, instance{"complete-bipartite-25", wide, wideD})

	triples := 0
	for _, inst := range instances {
		if err := Validate(inst.g, inst.d); err != nil {
			t.Fatalf("%s: bad instance decomposition: %v", inst.name, err)
		}
		nice, err := MakeNiceCtx(context.Background(), inst.d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range sentences {
			phi := MustCompileEMSO(f)
			wantWords, wantOK, wantErr := solveEMSOReference(inst.g, nice, phi)
			gotWords, gotOK, gotErr := SolveEMSOCtx(context.Background(), inst.g, nice, phi)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s / %s: reference err=%v, engine err=%v", inst.name, f, wantErr, gotErr)
			}
			if wantOK != gotOK {
				t.Fatalf("%s / %s: reference ok=%v, engine ok=%v", inst.name, f, wantOK, gotOK)
			}
			if len(wantWords) != len(gotWords) {
				t.Fatalf("%s / %s: witness lengths differ: %d vs %d", inst.name, f, len(wantWords), len(gotWords))
			}
			for v := range wantWords {
				if wantWords[v] != gotWords[v] {
					t.Fatalf("%s / %s: witness word of vertex %d differs: reference %#x, engine %#x",
						inst.name, f, v, wantWords[v], gotWords[v])
				}
			}
			triples++
		}
	}
	if triples < 50 {
		t.Fatalf("only %d differential triples ran (want >= 50)", triples)
	}
}

// TestIntroTablesMatchReference holds the DP's transition tables to the
// reference introduce check on every state of every configuration:
// random adjacency on bags of 1–6 positions, each position in turn the
// introduced one. The differential solve only reads the entries a DP
// happens to reach; this reads them all. One compiled sentence serves
// every configuration, so later lookups also go through the memo.
func TestIntroTablesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, f := range []logic.Formula{
		logic.TrueSentence(), logic.TwoColorable(), logic.ThreeColorable(), logic.TriangleFree(),
		logic.MustParse("existsset S. forall x. forall y. x ~ y -> !(x in S & y in S)"),
		logic.MustParse(hitTriangles),
	} {
		phi := MustCompileEMSO(f)
		m := phi.NumSets()
		checked, rejected := 0, 0
		for k := 1; k <= 6; k++ {
			for trial := 0; trial < 12; trial++ {
				g := graph.New(k)
				density := rng.Float64()
				for i := 0; i < k; i++ {
					for j := i + 1; j < k; j++ {
						if rng.Float64() < density {
							g.MustAddEdge(i, j)
						}
					}
				}
				bag, bag32 := make([]int, k), make([]int32, k)
				for i := range bag {
					bag[i], bag32[i] = i, int32(i)
				}
				sv := &emsoSolver{g: g, phi: phi, m: m}
				for pos := 0; pos < k; pos++ {
					tb := sv.tablesFor(bag32, pos)
					for s := uint64(0); s < 1<<uint(m*k); s++ {
						want := introduceOK(g, phi, bag, pos, s)
						if got := tb.admitted(forgetWord(s, pos, m), m)>>wordAt(s, pos, m)&1 == 1; got != want {
							t.Fatalf("%s: bag size %d, edges %v, position %d, state %#x: tables %v, reference %v",
								f, k, g.Edges(), pos, s, got, want)
						}
						checked++
						if !want {
							rejected++
						}
					}
				}
			}
		}
		if phi.valid != (rejected == 0) {
			t.Fatalf("%s: %d of %d states rejected, valid matrix %v", f, rejected, checked, phi.valid)
		}
	}
}

// TestSolveEMSOJoinHeavyEndToEnd pins the join path with a real
// certification round trip on a book graph.
func TestSolveEMSOJoinHeavyEndToEnd(t *testing.T) {
	g, d := bookGraph(12)
	prop, _ := PropertyByName("3-colorable")
	s := &MSOScheme{T: 2, Prop: prop, Decomps: DecompFunc(func(*graph.Graph) (*Decomposition, error) {
		return d, nil
	})}
	a, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.RunSequential(g, s, a)
	if err != nil || !res.Accepted {
		t.Fatalf("book graph proof rejected at %v (err=%v)", res.Rejecters, err)
	}
}

// TestTracebackErrorTyped checks the typed error formats its diagnostic
// fields and is matchable with errors.As through wrapping.
func TestTracebackErrorTyped(t *testing.T) {
	base := &TracebackError{Node: 17, Kind: KindForget, Bag: []int{2, 5, 9}}
	wrapped := fmt.Errorf("prove: %w", base)
	var te *TracebackError
	if !errors.As(wrapped, &te) {
		t.Fatal("errors.As failed to recover *TracebackError through wrapping")
	}
	if te.Node != 17 || te.Kind != KindForget || len(te.Bag) != 3 {
		t.Fatalf("typed fields lost: %+v", te)
	}
	want := "treewidth: EMSO DP traceback stuck at forget node 17 (bag [2 5 9])"
	if te.Error() != want {
		t.Fatalf("Error() = %q, want %q", te.Error(), want)
	}
}

// TestTableListPresized: the bottom-up pass never holds more tables
// than the forget count and waiting bound MakeNiceCtx records, so the
// list SolveEMSOCtx presizes from them never grows.
func TestTableListPresized(t *testing.T) {
	ctx := context.Background()
	phi := MustCompileEMSO(logic.TrueSentence()) // no table is ever empty
	for _, c := range decompCorpus(t) {
		for _, root := range []int{0, len(c.d.Bags) - 1} {
			nice, err := MakeNiceCtx(ctx, c.d, root)
			if err != nil {
				t.Fatal(err)
			}
			sc := &emsoScratch{slot: make([]int32, nice.NumNodes())}
			sv := &emsoSolver{g: c.g, nice: nice, phi: phi, sc: sc, cp: fault.NewCheckpoint(ctx, "prove")}
			if ok, err := sv.up(); err != nil || !ok {
				t.Fatalf("%s root %d: ok=%v err=%v", c.name, root, ok, err)
			}
			if n := len(sc.tables); n > nice.forgets+nice.waiting {
				t.Fatalf("%s root %d: %d tables held, presized for %d forget and %d waiting",
					c.name, root, n, nice.forgets, nice.waiting)
			}
		}
	}
}

// TestIntroMemoBounded pins the transition-table memo's eviction: the
// configurations are graph-controlled, so the memo must stay bounded no
// matter how many distinct bag adjacency patterns a long-lived process
// meets.
func TestIntroMemoBounded(t *testing.T) {
	// 2-colourability: a valid matrix (tw-bound) would build no table.
	phi := MustCompileEMSO(logic.TwoColorable())
	phi.introMu.Lock()
	phi.intro = map[string]*introTables{}
	for i := 0; i < maxIntroMemoEntries; i++ {
		phi.intro[fmt.Sprint("synthetic-", i)] = &introTables{}
	}
	phi.introMu.Unlock()
	// The next solve needs a table for some configuration not in the
	// synthetic fill; storing it must evict instead of growing.
	g := graphgen.Cycle(8)
	d, _, err := HeuristicCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := MakeNiceCtx(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := SolveEMSOCtx(context.Background(), g, nice, phi); err != nil || !ok {
		t.Fatalf("solve on full memo: ok=%v err=%v", ok, err)
	}
	phi.introMu.Lock()
	total, built := len(phi.intro), 0
	for k := range phi.intro {
		if !strings.HasPrefix(k, "synthetic-") {
			built++
		}
	}
	phi.introMu.Unlock()
	if total > maxIntroMemoEntries || built == 0 {
		t.Fatalf("memo holds %d entries (cap %d), %d of them built by the solve", total, maxIntroMemoEntries, built)
	}
}

// TestIntroMemoKeyedOnReadPairs pins the memo key to the bag pairs a
// transition table reads: a one-variable sentence reads no pair, so
// solving a 5,000-vertex partial 4-tree must leave at most one memo entry
// per (bag size, introduced position), however many adjacency patterns
// its bags show. The sentence has a set variable, so its matrix is not
// valid; tw-bound's valid one must leave no entry at all.
func TestIntroMemoKeyedOnReadPairs(t *testing.T) {
	g, _ := graphgen.PartialKTree(5000, 4, 0.85, rand.New(rand.NewSource(3)))
	d, _, err := HeuristicCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := MakeNiceCtx(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	configs := map[[2]int]bool{}
	for i, nd := range nice.Nodes {
		if nd.Kind == KindIntroduce {
			configs[[2]int{len(nice.Bag(i)), int(nd.Pos)}] = true
		}
	}
	entries := func(f logic.Formula) int {
		phi := MustCompileEMSO(f)
		if _, ok, err := SolveEMSOCtx(context.Background(), g, nice, phi); err != nil || !ok {
			t.Fatalf("%s: solve: ok=%v err=%v", f, ok, err)
		}
		phi.introMu.Lock()
		defer phi.introMu.Unlock()
		return len(phi.intro)
	}
	if n := entries(logic.MustParse("existsset S. forall x. x in S")); n == 0 || n > len(configs) {
		t.Fatalf("%d memo entries for %d (bag size, position) configurations", n, len(configs))
	}
	if n := entries(logic.TrueSentence()); n != 0 {
		t.Fatalf("tw-bound's valid matrix left %d memo entries, want none", n)
	}
}

// TestIntroMemoHitAllocationFree: tablesFor runs once per introduce
// node, so a memo hit must not allocate. A key buffer or adjacency
// closure that escapes to the heap would cost one allocation per node,
// 10⁵ and more on a large prove.
func TestIntroMemoHitAllocationFree(t *testing.T) {
	g := hubPath(t, 5) // a hub joined to a path: every position sees triangles
	bag := []int32{0, 1, 2, 3, 4, 5}
	for _, f := range []logic.Formula{logic.TrueSentence(), logic.ThreeColorable(), logic.MustParse(hitTriangles)} {
		phi := MustCompileEMSO(f)
		sv := &emsoSolver{g: g, phi: phi, m: phi.NumSets()}
		for pos := range bag {
			sv.tablesFor(bag, pos)
			if allocs := testing.AllocsPerRun(50, func() { sv.tablesFor(bag, pos) }); allocs != 0 {
				t.Errorf("%s: a memo hit at position %d allocates %v times", f, pos, allocs)
			}
		}
	}
}

// TestHeuristicMatchesReference drives the bitset elimination engine
// against the retained map-based reference: identical elimination order,
// identical bags, identical width — which pins the incremental degree and
// fill-in maintenance exactly (any drift in a single count changes a
// greedy choice) — and identical trees, linked by the original linker.
func TestHeuristicMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		var g *graph.Graph
		switch seed % 4 {
		case 0:
			g, _ = graphgen.PartialKTree(8+rng.Intn(40), 1+rng.Intn(3), 0.5, rng)
		case 1:
			g = graphgen.RandomConnected(8+rng.Intn(30), rng.Intn(40), rng)
		case 2:
			g = graphgen.Grid(2+rng.Intn(4), 2+rng.Intn(5))
		default:
			g = graphgen.Star(3 + rng.Intn(20))
		}
		for _, score := range []heuristicScore{scoreDegree, scoreFill} {
			wantD, wantOrder, wantWidth := runHeuristicReference(g, score)
			gotD, gotOrder, gotWidth, err := bitsetDecomp(g, score)
			if err != nil {
				t.Fatalf("seed %d score %d: %v", seed, score, err)
			}
			if wantWidth != gotWidth {
				t.Fatalf("seed %d score %d: width %d vs reference %d", seed, score, gotWidth, wantWidth)
			}
			if len(wantOrder) != len(gotOrder) {
				t.Fatalf("seed %d score %d: order lengths differ", seed, score)
			}
			for i := range wantOrder {
				if wantOrder[i] != gotOrder[i] {
					t.Fatalf("seed %d score %d: elimination order differs at step %d: %d vs reference %d",
						seed, score, i, gotOrder[i], wantOrder[i])
				}
			}
			for b := range wantD.Bags {
				if len(wantD.Bags[b]) != len(gotD.Bags[b]) {
					t.Fatalf("seed %d score %d: bag %d sizes differ", seed, score, b)
				}
				for i := range wantD.Bags[b] {
					if wantD.Bags[b][i] != gotD.Bags[b][i] {
						t.Fatalf("seed %d score %d: bag %d differs: %v vs reference %v",
							seed, score, b, gotD.Bags[b], wantD.Bags[b])
					}
				}
			}
			if !reflect.DeepEqual(wantD.Adj, gotD.Adj) {
				t.Fatalf("seed %d score %d: tree %v vs reference %v", seed, score, gotD.Adj, wantD.Adj)
			}
		}
	}
}
