package treewidth

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
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
			checkSolveMatchesReference(t, inst.name, inst.g, nice, MustCompileEMSO(f))
			triples++
		}
	}
	if triples < 50 {
		t.Fatalf("only %d differential triples ran (want >= 50)", triples)
	}
}

// checkSolveMatchesReference solves g over nice with the engine and with
// solveEMSOReference and fails unless both fail alike or reach the same
// verdict with the same witness words.
func checkSolveMatchesReference(t testing.TB, name string, g *graph.Graph, nice *Nice, phi *EMSO) {
	t.Helper()
	wantWords, wantOK, wantErr := solveEMSOReference(g, nice, phi)
	gotWords, gotOK, gotErr := SolveEMSOCtx(context.Background(), g, nice, phi)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s / %s: reference err=%v, engine err=%v", name, phi, wantErr, gotErr)
	}
	if wantOK != gotOK {
		t.Fatalf("%s / %s: reference ok=%v, engine ok=%v", name, phi, wantOK, gotOK)
	}
	if len(wantWords) != len(gotWords) {
		t.Fatalf("%s / %s: witness lengths differ: %d vs %d", name, phi, len(wantWords), len(gotWords))
	}
	for v := range wantWords {
		if wantWords[v] != gotWords[v] {
			t.Fatalf("%s / %s: witness word of vertex %d differs: reference %#x, engine %#x",
				name, phi, v, wantWords[v], gotWords[v])
		}
	}
}

// FuzzSolveEMSO holds the engine to solveEMSOReference on arbitrary
// sentences and small graphs: the formula text goes through logic.Parse
// and CompileEMSO as in FuzzCliqueTable, and the bytes decode into a
// graph on at most 8 vertices (fuzzGraph). Whenever the sentence compiles
// and the heuristic decomposes the graph, both solvers run over its nice
// decomposition and must fail alike or agree on the verdict and the
// witness words. The seeds pair the property library's sentences and
// hitTriangles with the shapes of TestSolveEMSODifferential cut to 8
// vertices: a single vertex, books and partial k-trees.
func FuzzSolveEMSO(f *testing.F) {
	srcs := []string{hitTriangles}
	for _, p := range propertyLibrary {
		srcs = append(srcs, p.Phi.Source.String())
	}
	graphs := []*graph.Graph{graph.New(1)}
	for _, k := range []int{2, 4, 6} {
		g, _ := bookGraph(k)
		graphs = append(graphs, g)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 3; k++ {
		g, _ := graphgen.PartialKTree(8, k, 0.6, rng)
		graphs = append(graphs, g)
	}
	for _, src := range srcs {
		for _, g := range graphs {
			f.Add(src, fuzzGraphBytes(g))
		}
	}
	f.Fuzz(func(t *testing.T, src string, data []byte) {
		fm, err := logic.Parse(src)
		if err != nil {
			return
		}
		phi, err := CompileEMSO(fm)
		if err != nil {
			return
		}
		g := fuzzGraph(data)
		d, _, err := HeuristicCtx(context.Background(), g)
		if err != nil {
			return
		}
		nice, err := MakeNiceCtx(context.Background(), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		checkSolveMatchesReference(t, fmt.Sprintf("%d vertices, edges %v", g.N(), g.Edges()), g, nice, phi)
	})
}

// fuzzGraph decodes fuzz bytes into a graph on at most 8 vertices: the
// first byte gives the vertex count, 1 + byte mod 8, and the bits of the
// rest, least significant first, mark the pairs i<j in row order.
func fuzzGraph(data []byte) *graph.Graph {
	n := 1
	if len(data) > 0 {
		n += int(data[0] % 8)
		data = data[1:]
	}
	g := graph.New(n)
	bit := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if bit/8 < len(data) && data[bit/8]>>(bit%8)&1 == 1 {
				g.MustAddEdge(i, j)
			}
			bit++
		}
	}
	return g
}

// fuzzGraphBytes encodes a graph on 1–8 vertices as fuzzGraph reads it.
func fuzzGraphBytes(g *graph.Graph) []byte {
	n := g.N()
	data := make([]byte, 1+(n*(n-1)/2+7)/8)
	data[0] = byte(n - 1)
	bit := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if g.HasEdge(i, j) {
				data[1+bit/8] |= 1 << (bit % 8)
			}
			bit++
		}
	}
	return data
}

// TestIntroTablesMatchReference holds the DP's transition tables to the
// reference introduce check on every state of every configuration:
// random adjacency on bags of 1–6 positions, each position in turn the
// introduced one. The differential solve only reads the entries a DP
// happens to reach; this reads them all.
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
				var w centredWalk
				for pos := 0; pos < k; pos++ {
					tb := w.introCliques(g, phi, bag32, pos)
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

// TestIntroCliquesAllocationFree: the DP builds every introduce node's
// transition table in its pooled walk, so once the walk's buffers have
// grown the build must not allocate. An adjacency read or clique visitor
// that escapes to the heap would cost an allocation per introduce node,
// 10⁵ and more on a large prove.
func TestIntroCliquesAllocationFree(t *testing.T) {
	g := hubPath(t, 5) // a hub joined to a path: every position sees triangles
	bag := []int32{0, 1, 2, 3, 4, 5}
	for _, f := range []logic.Formula{logic.TrueSentence(), logic.ThreeColorable(), logic.MustParse(hitTriangles)} {
		phi := MustCompileEMSO(f)
		var w centredWalk
		for pos := range bag {
			w.introCliques(g, phi, bag, pos)
			if allocs := testing.AllocsPerRun(50, func() { w.introCliques(g, phi, bag, pos) }); allocs != 0 {
				t.Errorf("%s: building position %d's cliques allocates %v times", f, pos, allocs)
			}
		}
	}
}

// TestSolveEMSOAllocations: a warm solve allocates only what it returns
// or hands the traceback, the output words and the traceback's words.
// Every other buffer, the introduce nodes' clique lists and the witness
// re-check's walk included, comes from the pooled scratch.
func TestSolveEMSOAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	ctx := context.Background()
	g, _ := graphgen.PartialKTree(96, 2, 0.6, rand.New(rand.NewSource(5)))
	d, _, err := HeuristicCtx(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := MakeNiceCtx(ctx, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	phi := MustCompileEMSO(logic.ThreeColorable())
	solve := func() {
		if _, ok, err := SolveEMSOCtx(ctx, g, nice, phi); err != nil || !ok {
			t.Fatalf("solve: ok=%v err=%v", ok, err)
		}
	}
	solve()
	if allocs := testing.AllocsPerRun(20, solve); allocs > 2 {
		t.Fatalf("a warm 3-colorable solve allocates %v times, want at most 2", allocs)
	}
}

// TestSolveEMSOConcurrentSharedSentence: one compiled sentence serves
// solves from several goroutines at once, as a library sentence does on a
// server's workers, and each solve must return exactly what it returns
// alone: the sentence holds nothing a solve writes, and every run works in
// its own scratch.
func TestSolveEMSOConcurrentSharedSentence(t *testing.T) {
	ctx := context.Background()
	phi := MustCompileEMSO(logic.ThreeColorable())
	type instance struct {
		g     *graph.Graph
		nice  *Nice
		words []uint8
		ok    bool
	}
	rng := rand.New(rand.NewSource(13))
	insts := make([]instance, 16)
	accepted := 0
	for i := range insts {
		// Partial 2-trees are 3-colourable; partial 3-trees may not be.
		g, _ := graphgen.PartialKTree(20+rng.Intn(40), 2+i%2, 0.7, rng)
		d, _, err := HeuristicCtx(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		nice, err := MakeNiceCtx(ctx, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		words, ok, err := SolveEMSOCtx(ctx, g, nice, phi)
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = instance{g, nice, words, ok}
		if ok {
			accepted++
		}
	}
	if accepted == 0 || accepted == len(insts) {
		t.Fatalf("%d of %d instances accepted: the comparison is one-sided", accepted, len(insts))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				for i := range insts {
					in := &insts[(i+w)%len(insts)]
					words, ok, err := SolveEMSOCtx(ctx, in.g, in.nice, phi)
					if err != nil || ok != in.ok || !slices.Equal(words, in.words) {
						t.Errorf("worker %d, instance %d: ok=%v err=%v, alone ok=%v", w, (i+w)%len(insts), ok, err, in.ok)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
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
