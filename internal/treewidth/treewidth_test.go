package treewidth

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/netsim"
)

// --- decomposition computation -----------------------------------------

// Exact treewidth of the classic families: paths and trees are 1, cycles
// 2, the k-clique k-1, the 3x3 grid 3.
func TestExactKnownFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path-10", graphgen.Path(10), 1},
		{"tree", graphgen.RandomTree(14, rand.New(rand.NewSource(1))), 1},
		{"cycle-9", graphgen.Cycle(9), 2},
		{"clique-5", graphgen.Clique(5), 4},
		{"grid-3x3", graphgen.Grid(3, 3), 3},
		{"single", graphgen.Path(1), 0},
	}
	for _, tc := range cases {
		w, d, err := ExactCtx(context.Background(), tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if w != tc.want {
			t.Fatalf("%s: exact width %d, want %d", tc.name, w, tc.want)
		}
		if err := Validate(tc.g, d); err != nil {
			t.Fatalf("%s: exact decomposition invalid: %v", tc.name, err)
		}
		if d.Width() != w {
			t.Fatalf("%s: decomposition width %d != reported %d", tc.name, d.Width(), w)
		}
	}
}

func TestExactRejectsLargeGraphs(t *testing.T) {
	if _, _, err := ExactCtx(context.Background(), graphgen.Path(ExactLimit+1)); err == nil {
		t.Fatal("Exact accepted a graph beyond ExactLimit")
	}
}

func TestHeuristicsProduceValidDecompositions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*graph.Graph{
		graphgen.Path(40),
		graphgen.Cycle(25),
		graphgen.Grid(4, 6),
		graphgen.RandomConnected(30, 20, rng),
	}
	for i, g := range graphs {
		for _, run := range []struct {
			name string
			f    func(context.Context, *graph.Graph) (*Decomposition, []int, int, error)
		}{{"min-fill", MinFillCtx}, {"min-degree", MinDegreeCtx}} {
			d, order, width, err := run.f(context.Background(), g)
			if err != nil {
				t.Fatalf("graph %d %s: %v", i, run.name, err)
			}
			if len(order) != g.N() {
				t.Fatalf("graph %d %s: order has %d entries", i, run.name, len(order))
			}
			if err := Validate(g, d); err != nil {
				t.Fatalf("graph %d %s: invalid decomposition: %v", i, run.name, err)
			}
			if d.Width() != width {
				t.Fatalf("graph %d %s: decomposition width %d != reported %d", i, run.name, d.Width(), width)
			}
		}
	}
}

// KTree/PartialKTree generators: the construction record is a valid
// decomposition witness of width <= k, and for full k-trees exactly k.
func TestKTreeWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 2, 3} {
		g, attach := graphgen.KTree(20, k, rng)
		d, err := FromKTree(g.N(), k, attach)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := Validate(g, d); err != nil {
			t.Fatalf("k=%d: k-tree witness invalid: %v", k, err)
		}
		if d.Width() != k {
			t.Fatalf("k=%d: witness width %d", k, d.Width())
		}
		pg, pattach := graphgen.PartialKTree(20, k, 0.4, rng)
		if !pg.Connected() {
			t.Fatalf("k=%d: partial k-tree disconnected", k)
		}
		pd, err := FromKTree(pg.N(), k, pattach)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := Validate(pg, pd); err != nil {
			t.Fatalf("k=%d: partial k-tree witness invalid: %v", k, err)
		}
	}
}

// --- decomposition invariants (property test) --------------------------

// Over random partial k-trees and random connected graphs: the heuristics
// never beat the exact width, produced decompositions are valid, and each
// single-field corruption (dropped vertex, dropped edge cover, split bag
// trace) is rejected by the checker.
func TestDecompositionInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		var g *graph.Graph
		if trial%2 == 0 {
			n := 6 + rng.Intn(11) // 6..16
			k := 1 + rng.Intn(3)
			if n < k+2 {
				n = k + 2
			}
			g, _ = graphgen.PartialKTree(n, k, 0.5, rng)
		} else {
			n := 6 + rng.Intn(11)
			g = graphgen.RandomConnected(n, rng.Intn(n), rng)
		}
		exactW, exactD, err := ExactCtx(context.Background(), g)
		if err != nil {
			t.Fatalf("trial %d: exact: %v", trial, err)
		}
		if err := Validate(g, exactD); err != nil {
			t.Fatalf("trial %d: exact decomposition invalid: %v", trial, err)
		}
		for _, run := range []struct {
			name string
			f    func(context.Context, *graph.Graph) (*Decomposition, []int, int, error)
		}{{"min-fill", MinFillCtx}, {"min-degree", MinDegreeCtx}} {
			d, _, width, err := run.f(context.Background(), g)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, run.name, err)
			}
			if width < exactW {
				t.Fatalf("trial %d: %s width %d beats exact %d on %v", trial, run.name, width, exactW, g)
			}
			if err := Validate(g, d); err != nil {
				t.Fatalf("trial %d %s: invalid: %v", trial, run.name, err)
			}
			corruptAndCheck(t, g, d)
		}
	}
}

// corruptAndCheck applies the three canonical single-field corruptions and
// asserts the checker rejects each.
func corruptAndCheck(t *testing.T, g *graph.Graph, d *Decomposition) {
	t.Helper()
	// Dropped vertex: remove vertex 0 from every bag.
	dropped := d.Clone()
	for b := range dropped.Bags {
		dropped.Bags[b] = withoutInt(dropped.Bags[b], 0)
	}
	if IsValid(g, dropped) {
		t.Fatalf("checker accepted a decomposition with vertex 0 dropped")
	}
	// Dropped edge cover: pick the first edge and remove its lower
	// endpoint from every bag containing both endpoints.
	if g.M() > 0 {
		e := g.Edges()[0]
		uncovered := d.Clone()
		for b := range uncovered.Bags {
			if containsInt(uncovered.Bags[b], e[0]) && containsInt(uncovered.Bags[b], e[1]) {
				uncovered.Bags[b] = withoutInt(uncovered.Bags[b], e[0])
			}
		}
		if IsValid(g, uncovered) {
			t.Fatalf("checker accepted a decomposition with edge (%d,%d) uncovered", e[0], e[1])
		}
	}
	// Split bag trace: add some vertex to a bag that is not adjacent to
	// its trace (when the tree has such a bag).
	split := d.Clone()
	if splitTrace(g, split) {
		if IsValid(g, split) {
			t.Fatalf("checker accepted a decomposition with a disconnected trace")
		}
	}
}

// splitTrace tries to disconnect some vertex's trace by inserting the
// vertex into a bag with no tree neighbour in the trace; it reports
// whether it succeeded for any vertex.
func splitTrace(g *graph.Graph, d *Decomposition) bool {
	for v := 0; v < g.N(); v++ {
		inTrace := make([]bool, d.NumBags())
		for b, bag := range d.Bags {
			if containsInt(bag, v) {
				inTrace[b] = true
			}
		}
		for b := range d.Bags {
			if inTrace[b] {
				continue
			}
			adjacent := false
			for _, c := range d.Adj[b] {
				if inTrace[c] {
					adjacent = true
					break
				}
			}
			if !adjacent {
				d.Bags[b] = insertSorted(d.Bags[b], v)
				return true
			}
		}
	}
	return false
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func withoutInt(s []int, v int) []int {
	out := make([]int, 0, len(s))
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// Validate's structural checks fire on malformed trees.
func TestValidateStructure(t *testing.T) {
	g := graphgen.Path(3)
	valid := &Decomposition{
		Bags: [][]int{{0, 1}, {1, 2}},
		Adj:  [][]int{{1}, {0}},
	}
	if err := Validate(g, valid); err != nil {
		t.Fatalf("valid decomposition rejected: %v", err)
	}
	cyclic := &Decomposition{
		Bags: [][]int{{0, 1}, {1, 2}, {0, 2}},
		Adj:  [][]int{{1, 2}, {0, 2}, {0, 1}},
	}
	if IsValid(g, cyclic) {
		t.Fatal("cyclic decomposition accepted")
	}
	asym := &Decomposition{
		Bags: [][]int{{0, 1}, {1, 2}},
		Adj:  [][]int{{1}, {}},
	}
	if IsValid(g, asym) {
		t.Fatal("asymmetric tree edge accepted")
	}
	unsorted := &Decomposition{
		Bags: [][]int{{1, 0}, {1, 2}},
		Adj:  [][]int{{1}, {0}},
	}
	if IsValid(g, unsorted) {
		t.Fatal("unsorted bag accepted")
	}
}

// TestProveValidationCancellable: the prover validates every
// decomposition it is handed, about 50ms at n=10⁵, so a client that
// walks away during validation must stop it at a checkpoint. The
// decomposition source cancels the request as it returns a
// decomposition whose only defect is an unsorted bag near the end: the
// prover must report the cancellation, not run validation to that bag.
func TestProveValidationCancellable(t *testing.T) {
	g, _ := graphgen.PartialKTree(5_000, 4, 0.85, rand.New(rand.NewSource(1)))
	d, _, err := HeuristicCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	last := len(d.Bags) - 1
	for len(d.Bags[last]) < 2 {
		last--
	}
	bad := &Decomposition{Bags: append([][]int(nil), d.Bags...), Adj: d.Adj}
	bad.Bags[last] = []int{d.Bags[last][1], d.Bags[last][0]}
	if err := Validate(g, bad); err == nil {
		t.Fatal("unsorted last bag validated")
	}
	prop, _ := PropertyByName("tw-bound")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &MSOScheme{T: 6, Prop: prop, Decomps: DecompFunc(func(*graph.Graph) (*Decomposition, error) {
		cancel()
		return bad, nil
	})}
	_, err = s.ProveCtx(ctx, g)
	if ce, ok := fault.Cancelled(err); !ok || ce.Phase != "decompose" {
		t.Fatalf("prove returned %v, want a decompose CancelledError", err)
	}
}

// --- nice decompositions and the colouring DP ---------------------------

func TestMakeNiceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, attach := graphgen.KTree(16, 2, rng)
	d, err := FromKTree(g.N(), 2, attach)
	if err != nil {
		t.Fatal(err)
	}
	nice, err := MakeNiceCtx(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nice.Width() != d.Width() {
		t.Fatalf("nice width %d, decomposition width %d", nice.Width(), d.Width())
	}
	if len(nice.Nodes[nice.Root].Bag) != 0 {
		t.Fatalf("nice root bag not empty: %v", nice.Nodes[nice.Root].Bag)
	}
	for i, nd := range nice.Nodes {
		switch nd.Kind {
		case KindLeaf:
			if len(nd.Children) != 0 || len(nd.Bag) != 0 {
				t.Fatalf("node %d: malformed leaf %+v", i, nd)
			}
		case KindIntroduce, KindForget:
			if len(nd.Children) != 1 {
				t.Fatalf("node %d: %v with %d children", i, nd.Kind, len(nd.Children))
			}
			child := nice.Nodes[nd.Children[0]].Bag
			want := len(child) + 1
			if nd.Kind == KindForget {
				want = len(child) - 1
			}
			if len(nd.Bag) != want {
				t.Fatalf("node %d: %v bag %v from child bag %v", i, nd.Kind, nd.Bag, child)
			}
		case KindJoin:
			if len(nd.Children) != 2 {
				t.Fatalf("node %d: join with %d children", i, len(nd.Children))
			}
		}
	}
}

// TestMakeNiceDeepPath converts a decomposition whose tree is a path of
// 2·10⁵ bags {i, i+1} rooted at one end — the shape the heuristics give a
// path graph — under a 16 MB goroutine stack cap. A conversion that
// recurses once per tree level needs more than that, and a Go stack
// overflow is fatal: it would take a whole server down with one request.
// Not parallel: the stack cap is process-wide.
func TestMakeNiceDeepPath(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(16 << 20))
	const nb = 200_000
	d := &Decomposition{Bags: make([][]int, nb), Adj: make([][]int, nb)}
	for i := range d.Bags {
		d.Bags[i] = []int{i, i + 1}
		if i > 0 {
			d.Adj[i] = append(d.Adj[i], i-1)
			d.Adj[i-1] = append(d.Adj[i-1], i)
		}
	}
	nice, err := MakeNiceCtx(context.Background(), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bag := nice.Nodes[nice.Root].Bag; len(bag) != 0 {
		t.Fatalf("nice root bag %v, want empty", bag)
	}
	// The far leaf and its two introduces, one forget and one introduce
	// per tree edge, and the root bag's two forgets.
	if want := 3 + 2*(nb-1) + 2; nice.NumNodes() != want || nice.Width() != 1 {
		t.Fatalf("%d nodes of width %d, want %d of width 1", nice.NumNodes(), nice.Width(), want)
	}
}

func TestColorGraph(t *testing.T) {
	cases := []struct {
		name      string
		g         *graph.Graph
		c         int
		colorable bool
	}{
		{"path-2col", graphgen.Path(10), 2, true},
		{"odd-cycle-2col", graphgen.Cycle(7), 2, false},
		{"odd-cycle-3col", graphgen.Cycle(7), 3, true},
		{"k4-3col", graphgen.Clique(4), 3, false},
		{"k4-4col", graphgen.Clique(4), 4, true},
		{"grid-2col", graphgen.Grid(3, 4), 2, true},
	}
	for _, tc := range cases {
		_, d, err := ExactCtx(context.Background(), tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		nice, err := MakeNiceCtx(context.Background(), d, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		colors, ok, err := ColorGraph(tc.g, nice, tc.c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.colorable {
			t.Fatalf("%s: colorable=%v, want %v", tc.name, ok, tc.colorable)
		}
		if ok {
			for _, e := range tc.g.Edges() {
				if colors[e[0]] == colors[e[1]] {
					t.Fatalf("%s: improper colouring at edge %v", tc.name, e)
				}
			}
		}
	}
}

// --- the tw-mso scheme ---------------------------------------------------

func TestPayloadRoundTrip(t *testing.T) {
	p := Payload{BagID: 3, Depth: 2, Bag: []graph.ID{3, 7, 19}, State: 2}
	c := EncodePayload(p, 7, 3)
	got, ok := DecodePayload(c, 7, 3)
	if !ok {
		t.Fatal("decode failed")
	}
	if got.BagID != p.BagID || got.Depth != p.Depth || got.State != p.State || !equalIDs(got.Bag, p.Bag) {
		t.Fatalf("round trip: %+v != %+v", got, p)
	}
	// The guard binds the certificate to its owner.
	if _, ok := DecodePayload(c, 8, 3); ok {
		t.Fatal("decode accepted a certificate bound to another vertex")
	}
	// Truncations are rejected.
	for cut := 1; cut < len(c); cut += 7 {
		if _, ok := DecodePayload(c[:len(c)-cut], 7, 3); ok {
			t.Fatalf("decode accepted a certificate truncated by %d bits", cut)
		}
	}
}

func yesInstances(t *testing.T) []struct {
	name string
	s    *MSOScheme
	g    *graph.Graph
} {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	g2, a2 := graphgen.PartialKTree(24, 2, 0.6, rng)
	d2 := func(gg *graph.Graph) (*Decomposition, error) { return FromKTree(gg.N(), 2, a2) }
	p2, _ := PropertyByName("tw-bound")
	pc2, _ := PropertyByName("2-colorable")
	pc3, _ := PropertyByName("3-colorable")
	return []struct {
		name string
		s    *MSOScheme
		g    *graph.Graph
	}{
		{"tw-bound/partial-2-tree", &MSOScheme{T: 2, Prop: p2, Decomps: DecompFunc(d2)}, g2},
		{"tw-bound/heuristic-path", &MSOScheme{T: 1, Prop: p2}, graphgen.Path(40)},
		{"2-colorable/tree", &MSOScheme{T: 1, Prop: pc2}, graphgen.RandomTree(30, rng)},
		{"3-colorable/cycle", &MSOScheme{T: 2, Prop: pc3}, graphgen.Cycle(15)},
		{"3-colorable/grid", &MSOScheme{T: 3, Prop: pc3}, graphgen.Grid(3, 6)},
	}
}

func TestSchemeCompleteness(t *testing.T) {
	for _, tc := range yesInstances(t) {
		holds, err := tc.s.Holds(tc.g)
		if err != nil {
			t.Fatalf("%s: Holds: %v", tc.name, err)
		}
		if !holds {
			t.Fatalf("%s: Holds = false on a yes-instance", tc.name)
		}
		a, res, err := cert.ProveAndVerify(tc.g, tc.s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Accepted {
			t.Fatalf("%s: honest proof rejected at %v", tc.name, res.Rejecters)
		}
		if a.MaxBits() == 0 {
			t.Fatalf("%s: empty certificates", tc.name)
		}
	}
}

func TestSchemeNoInstances(t *testing.T) {
	p2, _ := PropertyByName("tw-bound")
	pc2, _ := PropertyByName("2-colorable")
	pc3, _ := PropertyByName("3-colorable")
	cases := []struct {
		name string
		s    *MSOScheme
		g    *graph.Graph
	}{
		{"width-exceeded", &MSOScheme{T: 2, Prop: p2}, graphgen.Clique(5)},
		{"odd-cycle-not-2col", &MSOScheme{T: 2, Prop: pc2}, graphgen.Cycle(9)},
		{"k4-not-3col", &MSOScheme{T: 3, Prop: pc3}, graphgen.Clique(4)},
	}
	rng := rand.New(rand.NewSource(9))
	for _, tc := range cases {
		holds, err := tc.s.Holds(tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if holds {
			t.Fatalf("%s: Holds = true on a no-instance", tc.name)
		}
		if _, err := tc.s.Prove(tc.g); err == nil {
			t.Fatalf("%s: Prove succeeded on a no-instance", tc.name)
		}
		// Soundness probe: random and tampered assignments are rejected.
		rep, err := cert.ProbeSoundness(tc.g, tc.s, nil, 200, 60, rng)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Breaches > 0 {
			t.Fatalf("%s: %d soundness breaches at trials %v", tc.name, rep.Breaches, rep.Breach)
		}
	}
}

// Every mutating tamper — the standard family plus the decomposition-aware
// adversary — must be detected on yes-instances: the guard pins random
// corruption and replay, the decomposition checks pin the semantic bag
// corruptions that forge valid guards.
func TestSchemeTamperDetection(t *testing.T) {
	tampers := append(cert.StandardTampers(), BagTampers()...)
	for _, tc := range yesInstances(t) {
		honest, err := tc.s.Prove(tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rep, err := netsim.Default.Sweep(context.Background(), tc.g, tc.s, honest, tampers, 40, 1234)
		if err != nil {
			t.Fatalf("%s: sweep: %v", tc.name, err)
		}
		if !rep.AllDetected {
			for _, st := range rep.Stats {
				if len(st.Undetected) > 0 {
					t.Errorf("%s: tamper %s escaped at trials %v", tc.name, st.Tamper, st.Undetected)
				}
			}
			t.Fatalf("%s: corrupted assignments were accepted", tc.name)
		}
		mutated := 0
		for _, st := range rep.Stats {
			mutated += st.Mutated
		}
		if mutated == 0 {
			t.Fatalf("%s: sweep mutated nothing", tc.name)
		}
	}
}

// The sharded simulator and the sequential referee agree on tw-mso
// verdicts, honest and corrupted alike.
func TestSchemeDistributedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tampers := append(cert.StandardTampers(), BagTampers()...)
	for _, tc := range yesInstances(t) {
		honest, err := tc.s.Prove(tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assignments := []cert.Assignment{honest}
		for _, tm := range tampers {
			bad, mutated := tm.Apply(honest, rng)
			if mutated {
				assignments = append(assignments, bad)
			}
		}
		for i, a := range assignments {
			seq, err := cert.RunSequential(tc.g, tc.s, a)
			if err != nil {
				t.Fatalf("%s[%d]: %v", tc.name, i, err)
			}
			for _, workers := range []int{1, 3, 8} {
				eng := &netsim.Engine{Workers: workers}
				rep, err := eng.Run(context.Background(), tc.g, tc.s, a)
				if err != nil {
					t.Fatalf("%s[%d]: %v", tc.name, i, err)
				}
				if rep.Accepted != seq.Accepted {
					t.Fatalf("%s[%d]: distributed %v != sequential %v (workers=%d)",
						tc.name, i, rep.Accepted, seq.Accepted, workers)
				}
			}
		}
	}
}

// Certificate sizes follow the O(t log n) story: growing n at fixed width
// grows certificates slowly (logarithmically), far below linear.
func TestCertificateSizeGrowth(t *testing.T) {
	prop, _ := PropertyByName("tw-bound")
	var prev int
	for _, n := range []int{32, 128, 512} {
		rng := rand.New(rand.NewSource(21))
		g, attach := graphgen.PartialKTree(n, 3, 0.5, rng)
		s := &MSOScheme{T: 3, Prop: prop, Decomps: DecompFunc(func(gg *graph.Graph) (*Decomposition, error) {
			return FromKTree(gg.N(), 3, attach)
		})}
		a, res, err := cert.ProveAndVerify(g, s)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Accepted {
			t.Fatalf("n=%d: rejected at %v", n, res.Rejecters)
		}
		if prev > 0 && a.MaxBits() > 2*prev {
			t.Fatalf("n=%d: max bits %d more than doubled from %d — not logarithmic", n, a.MaxBits(), prev)
		}
		prev = a.MaxBits()
	}
}

func TestBagTampersNoOpOnForeignCertificates(t *testing.T) {
	// On a scheme without tw-mso payloads the decomposition-aware tampers
	// must report no-ops instead of undetected corruption.
	a := cert.Assignment{{0, 1, 1}, {1, 0}}
	rng := rand.New(rand.NewSource(2))
	for _, tm := range BagTampers() {
		out, mutated := tm.Apply(a, rng)
		if mutated {
			t.Fatalf("%s mutated a foreign assignment", tm.Name)
		}
		if len(out) != len(a) {
			t.Fatalf("%s resized the assignment", tm.Name)
		}
	}
}

func TestPropertyLibrary(t *testing.T) {
	names := Properties()
	if len(names) == 0 {
		t.Fatal("no properties")
	}
	for _, name := range names {
		p, ok := PropertyByName(name)
		if !ok || p.Name != name {
			t.Fatalf("property %q does not resolve", name)
		}
	}
	if _, ok := PropertyByName("no-such"); ok {
		t.Fatal("unknown property resolved")
	}
}
