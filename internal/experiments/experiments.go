// Package experiments implements every experiment of the reproduction
// (E1–E10 after the paper's theorems and figures, plus the E11
// adversarial soundness sweep, the E12 tree-decomposition workload and
// the E13 formula-compilation survey added on top of the paper's set):
// one function per experiment, each
// returning formatted table rows so that cmd/experiments and the
// benchmarks share the exact same code paths.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/automata"
	"repro/internal/cert"
	"repro/internal/combin"
	"repro/internal/commcc"
	"repro/internal/ef"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/kernel"
	"repro/internal/logic"
	"repro/internal/minor"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/rooted"
	"repro/internal/spanning"
	"repro/internal/treedepth"
	"repro/internal/treewidth"
)

// Table is one experiment's output.
type Table struct {
	ID    string
	Title string
	Head  []string
	Rows  [][]string
	Notes []string
}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Head))
	for i, h := range t.Head {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Head)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// E1TreeMSO measures certificate sizes of Theorem 2.2 schemes on growing
// random trees: constant, versus the O(log n) spanning tree and O(n^2)
// universal baselines. Schemes are built through the shared registry —
// the same factories cmd/certify and cmd/certserver use.
func E1TreeMSO(seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	reg := registry.Default()
	pm, err := reg.Build("tree-mso", registry.Params{Property: "perfect-matching"})
	if err != nil {
		return nil, err
	}
	deg3, err := reg.Build("tree-mso", registry.Params{Property: "max-degree-<=3"})
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:    "E1a",
		Title: "Theorem 2.2 — MSO on trees: max certificate bits vs n",
		Head:  []string{"n", "pm(bits)", "maxdeg3(bits)", "spanning(bits)", "universal(bits)"},
	}
	for _, n := range []int{16, 64, 256, 1024} {
		// A path with even length has a perfect matching and degree <= 3.
		g := graphgen.Path(n)
		apm, err := pm.Prove(g)
		if err != nil {
			return nil, err
		}
		adeg, err := deg3.Prove(g)
		if err != nil {
			return nil, err
		}
		asp, err := (spanning.Tree{}).Prove(g)
		if err != nil {
			return nil, err
		}
		uniBits := n*(n-1)/2 + 2*n // adjacency triangle + id varints, analytic
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(apm.MaxBits()), fmt.Sprint(adeg.MaxBits()),
			fmt.Sprint(asp.MaxBits()), fmt.Sprintf("~%d", uniBits),
		})
	}
	_ = rng
	table.Notes = append(table.Notes, "paper: O(1) for MSO on trees; flat columns 2 and 3 reproduce it")
	return table, nil
}

// E1b measures the state-count plateau of the FO type compiler.
func E1TypeDiscovery() (*Table, error) {
	tc, err := automata.NewTypeCompiler(logic.HasDominatingVertex())
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:    "E1b",
		Title: "Theorem 2.2 (compiler) — discovered automaton states vs n (paths)",
		Head:  []string{"n", "states"},
	}
	for _, n := range []int{5, 10, 20, 40, 80} {
		t, err := rooted.FromGraph(graphgen.Path(n), 0)
		if err != nil {
			return nil, err
		}
		if _, err := tc.AssignStates(t); err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{fmt.Sprint(n), fmt.Sprint(tc.NumClasses())})
	}
	table.Notes = append(table.Notes, "plateau = finitely many rank-k types = O(1) certificates")
	return table, nil
}

// E2FPF reports the information-theoretic shape of Theorem 2.3: injection
// capacity vs n, the implied lower bound l/r, and the universal upper
// bound.
func E2FPF() (*Table, error) {
	table := &Table{
		ID:    "E2",
		Title: "Theorem 2.3 — fixed-point-free automorphism needs Theta~(n) bits",
		Head:  []string{"n(half)", "l=cap(bits)", "r", "lower l/r", "log2#trees(depth3)", "universal(bits)"},
	}
	for _, leaves := range []int{64, 256, 1024} {
		l := combin.Depth2TreeCapacityBits(leaves)
		low := commcc.ImpliedLowerBound(l, 2)
		n := leaves + 2
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(leaves), fmt.Sprint(l), "2", fmt.Sprintf("%.0f", low),
			fmt.Sprintf("%.0f", combin.Log2TreesOfDepth(leaves, 3)),
			fmt.Sprintf("~%d", n*(n-1)/2),
		})
	}
	table.Notes = append(table.Notes,
		"depth-2 coding: capacity Theta(sqrt n); depth-3 counting ([42]) shows Theta~(n) capacity",
		"the universal scheme is the matching upper bound (whole-graph description)")
	return table, nil
}

// E3Treedepth measures Theorem 2.4 certificate sizes vs n and t.
func E3Treedepth(seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	table := &Table{
		ID:    "E3",
		Title: "Theorem 2.4 — treedepth<=t certification: max bits vs n and t",
		Head:  []string{"n", "t", "max bits", "bits/(t log2 n)"},
	}
	for _, t := range []int{3, 5} {
		for _, n := range []int{32, 128, 512} {
			g, parents := graphgen.BoundedTreedepth(n, t, 0.3, rng)
			s := &treedepth.Scheme{T: t, ModelProvider: func(gg *graph.Graph) (*rooted.Tree, error) {
				return treedepth.FromParentSlice(gg, parents)
			}}
			a, err := s.Prove(g)
			if err != nil {
				return nil, err
			}
			logn := log2f(float64(n))
			table.Rows = append(table.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(t), fmt.Sprint(a.MaxBits()),
				fmt.Sprintf("%.2f", float64(a.MaxBits())/(float64(t)*logn)),
			})
		}
	}
	table.Notes = append(table.Notes, "last column ~constant reproduces O(t log n)")
	return table, nil
}

// E4TreedepthLB verifies Lemma 7.3 and reports the Theta(log n) implied
// bound of Theorem 2.5.
func E4TreedepthLB() (*Table, error) {
	table := &Table{
		ID:    "E4",
		Title: "Theorem 2.5 / Lemma 7.3 — treedepth gadget: 5 vs >=6, bound l/r",
		Head:  []string{"m", "n", "td(equal)", "td(unequal)", "l(bits)", "r", "l/r"},
	}
	for _, m := range []int{2, 3} {
		l := combin.MatchingCapacityBits(m)
		idPerm := make([]int, m)
		swapped := make([]int, m)
		for i := range idPerm {
			idPerm[i] = i
			swapped[i] = i
		}
		swapped[0], swapped[1] = swapped[1], swapped[0]
		gdEq, err := graphgen.TreedepthGadget(m, idPerm, idPerm)
		if err != nil {
			return nil, err
		}
		gdNe, err := graphgen.TreedepthGadget(m, idPerm, swapped)
		if err != nil {
			return nil, err
		}
		tdEq, _, err := treedepth.Exact(gdEq.G)
		if err != nil {
			return nil, err
		}
		tdNe, _, err := treedepth.Exact(gdNe.G)
		if err != nil {
			return nil, err
		}
		r := gdEq.MiddleSize()
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(m), fmt.Sprint(gdEq.G.N()), fmt.Sprint(tdEq), fmt.Sprint(tdNe),
			fmt.Sprint(l), fmt.Sprint(r),
			fmt.Sprintf("%.2f", commcc.ImpliedLowerBound(l, r)),
		})
	}
	// Larger m: exact treedepth is out of reach, but Lemma 7.3 pins the
	// values (verified above on the computable sizes); the implied bound
	// l/r now shows its logarithmic growth.
	for _, m := range []int{64, 1024, 16384} {
		l := combin.MatchingCapacityBits(m)
		r := 4*m + 1
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(m), fmt.Sprint(8*m + 1), "(5)", "(>=6)",
			fmt.Sprint(l), fmt.Sprint(r),
			fmt.Sprintf("%.2f", commcc.ImpliedLowerBound(l, r)),
		})
	}
	table.Notes = append(table.Notes,
		"td(equal)=5 and td(unequal)>=6 reproduce Lemma 7.3 (parenthesized = by the lemma)",
		"l ~ m log m and r ~ 4m give the Omega(log n) of Theorem 2.5: l/r grows like log m")
	return table, nil
}

// E5KernelMSO measures Theorem 2.6 certificate sizes vs n.
func E5KernelMSO(seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	f := logic.MustParse("forall x. exists y. x ~ y")
	table := &Table{
		ID:    "E5",
		Title: "Theorem 2.6 — kernel MSO certification on treedepth<=3: bits vs n",
		Head:  []string{"n", "max bits", "registry", "kernel n"},
	}
	for _, n := range []int{32, 128, 512} {
		g, parents := graphgen.BoundedTreedepth(n, 3, 0.4, rng)
		s, err := kernel.NewMSOScheme(3, f)
		if err != nil {
			return nil, err
		}
		s.ModelProvider = func(gg *graph.Graph) (*rooted.Tree, error) {
			return treedepth.FromParentSlice(gg, parents)
		}
		a, err := s.Prove(g)
		if err != nil {
			return nil, err
		}
		holds, err := s.Holds(g)
		if err != nil || !holds {
			return nil, fmt.Errorf("E5: unexpected no-instance (%v)", err)
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(a.MaxBits()), fmt.Sprint(s.RegistrySize()), "-",
		})
	}
	table.Notes = append(table.Notes, "bits grow logarithmically; registry stabilizes (f(t,phi) term)")
	return table, nil
}

// E6KernelSize measures kernel sizes and type counts vs (k, t) against
// the Proposition 6.2 bound.
func E6KernelSize(seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	table := &Table{
		ID:    "E6",
		Title: "Proposition 6.2 — kernel size and end types vs (k, t), n=200",
		Head:  []string{"k", "t", "kernel n", "types", "log2 f_1(k,t) bound"},
	}
	for _, k := range []int{1, 2} {
		for _, t := range []int{2, 3} {
			g, parents := graphgen.BoundedTreedepth(200, t, 0.4, rng)
			model, err := treedepth.FromParentSlice(g, parents)
			if err != nil {
				return nil, err
			}
			model, err = treedepth.MakeCoherent(g, model)
			if err != nil {
				return nil, err
			}
			red, err := kernel.Reduce(g, model, k)
			if err != nil {
				return nil, err
			}
			types := map[string]bool{}
			for v := 0; v < g.N(); v++ {
				types[red.EndType[v].Code()] = true
			}
			table.Rows = append(table.Rows, []string{
				fmt.Sprint(k), fmt.Sprint(t), fmt.Sprint(red.Kernel.N()),
				fmt.Sprint(len(types)),
				fmt.Sprintf("%.1f", kernel.Log2TypeBound(1, k, t)),
			})
		}
	}
	table.Notes = append(table.Notes, "measured kernels and type counts are independent of n and far below the tower bound")
	return table, nil
}

// E7KernelEquivalence validates Proposition 6.3 by EF games and formula
// agreement.
func E7KernelEquivalence(seed int64) (*Table, error) {
	rng := rand.New(rand.NewSource(seed))
	table := &Table{
		ID:    "E7",
		Title: "Proposition 6.3 — G ~_k kernel(G): EF games + formula battery",
		Head:  []string{"trials", "k", "EF agree", "formula agree"},
	}
	for _, k := range []int{1, 2} {
		trials, efOK, fOK := 12, 0, 0
		for i := 0; i < trials; i++ {
			g, _ := graphgen.BoundedTreedepth(8+rng.Intn(8), 3, 0.5, rng)
			_, model, err := treedepth.Exact(g)
			if err != nil {
				return nil, err
			}
			model, err = treedepth.MakeCoherent(g, model)
			if err != nil {
				return nil, err
			}
			red, err := kernel.Reduce(g, model, k)
			if err != nil {
				return nil, err
			}
			if ef.EquivalentGraphs(g, red.Kernel, k) {
				efOK++
			}
			f := logic.HasEdge()
			a, err1 := logic.Eval(f, logic.NewModel(g))
			b, err2 := logic.Eval(f, logic.NewModel(red.Kernel))
			if err1 == nil && err2 == nil && a == b {
				fOK++
			}
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(trials), fmt.Sprint(k),
			fmt.Sprintf("%d/%d", efOK, trials), fmt.Sprintf("%d/%d", fOK, trials),
		})
	}
	table.Notes = append(table.Notes, "paper proves 100%; anything less is a bug")
	return table, nil
}

// E8SmallFragments compares Lemma 2.1 schemes with the universal baseline.
func E8SmallFragments() (*Table, error) {
	table := &Table{
		ID:    "E8",
		Title: "Lemma 2.1 — existential FO and depth-2 FO vs universal baseline",
		Head:  []string{"n", "existential(bits)", "depth2(bits)", "universal(bits)"},
	}
	reg := registry.Default()
	ex, err := reg.Build("existential-fo", registry.Params{FormulaAST: logic.IndependentSetOfSize(3)})
	if err != nil {
		return nil, err
	}
	d2, err := reg.Build("depth2-fo", registry.Params{FormulaAST: logic.HasDominatingVertex()})
	if err != nil {
		return nil, err
	}
	uni, err := reg.Build("universal", registry.Params{
		Property: "dominating",
		PropertyFunc: func(g *graph.Graph) (bool, error) {
			for v := 0; v < g.N(); v++ {
				if g.Degree(v) == g.N()-1 {
					return true, nil
				}
			}
			return false, nil
		},
	})
	if err != nil {
		return nil, err
	}
	for _, n := range []int{16, 64, 256} {
		star := graphgen.Star(n)
		ae, err := ex.Prove(star)
		if err != nil {
			return nil, err
		}
		ad, err := d2.Prove(star)
		if err != nil {
			return nil, err
		}
		au, err := uni.Prove(star)
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(ae.MaxBits()), fmt.Sprint(ad.MaxBits()), fmt.Sprint(au.MaxBits()),
		})
	}
	table.Notes = append(table.Notes, "logarithmic vs quadratic separation")
	return table, nil
}

// E9MinorFree runs the Corollary 2.7 schemes.
func E9MinorFree() (*Table, error) {
	table := &Table{
		ID:    "E9",
		Title: "Corollary 2.7 — P_t- and C_t-minor-free certification sizes",
		Head:  []string{"family", "n", "max bits"},
	}
	pt, err := minor.NewPathMinorFreeScheme(4)
	if err != nil {
		return nil, err
	}
	for _, n := range []int{30, 120, 480} {
		a, err := pt.Prove(graphgen.Star(n))
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{"P4-minor-free star", fmt.Sprint(n), fmt.Sprint(a.MaxBits())})
	}
	ct, err := minor.NewCycleMinorFreeScheme(4)
	if err != nil {
		return nil, err
	}
	for _, k := range []int{4, 16, 64} {
		g := cactusChain(k)
		a, err := ct.Prove(g)
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{"C4-minor-free cactus", fmt.Sprint(g.N()), fmt.Sprint(a.MaxBits())})
	}
	table.Notes = append(table.Notes, "both grow logarithmically in n")
	return table, nil
}

// E10Substrates: Figure 1 (td of paths), Figure 4 (game value), and
// Proposition 3.4 (spanning tree sizes), plus the distributed simulator.
func E10Substrates() (*Table, error) {
	table := &Table{
		ID:    "E10",
		Title: "Figures 1 & 4, Proposition 3.4 — substrate checks",
		Head:  []string{"item", "value", "expected"},
	}
	td7, _, err := treedepth.Exact(graphgen.Path(7))
	if err != nil {
		return nil, err
	}
	table.Rows = append(table.Rows, []string{"td(P7) (Figure 1)", fmt.Sprint(td7), "3"})
	gd, err := graphgen.TreedepthGadget(1, []int{0}, []int{0})
	if err != nil {
		return nil, err
	}
	cops, _, err := game.Play(gd.G, game.OptimalRobber{})
	if err != nil {
		return nil, err
	}
	table.Rows = append(table.Rows, []string{"cops on Figure 4 gadget", fmt.Sprint(cops), "5"})
	for _, n := range []int{64, 4096} {
		a, err := (spanning.Tree{}).Prove(graphgen.Path(n))
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("spanning-tree bits (n=%d)", n), fmt.Sprint(a.MaxBits()), "O(log n)",
		})
	}
	// Distributed simulator agreement.
	g := graphgen.Cycle(50)
	s := spanning.Tree{}
	a, err := s.Prove(g)
	if err != nil {
		return nil, err
	}
	rep, err := netsim.Run(context.Background(), g, s, a)
	if err != nil {
		return nil, err
	}
	seq, err := cert.RunSequential(g, s, a)
	if err != nil {
		return nil, err
	}
	table.Rows = append(table.Rows, []string{
		"distributed == sequential", fmt.Sprint(rep.Accepted == seq.Accepted), "true",
	})
	return table, nil
}

// E11Soundness runs the adversarial soundness sweep — every standard
// tamper applied to honest assignments, each corrupted variant verified on
// the sharded network simulator — across four scheme kinds whose
// verifiers pin every certificate, so every mutating corruption must be
// caught by at least one vertex. The tw-mso row additionally faces the
// decomposition-aware adversary (corrupt-bag-id / corrupt-bag-contents:
// semantic bag corruption with a correctly forged guard). (Witness-style
// schemes like treedepth are excluded on purpose: on a yes-instance a
// flipped bit can produce an alternative valid proof, which is not a
// soundness failure.)
func E11Soundness(seed int64) (*Table, error) {
	reg := registry.Default()
	table := &Table{
		ID:    "E11",
		Title: "Adversarial soundness — tamper detection on the sharded simulator",
		Head:  []string{"scheme", "tamper", "trials", "noops", "mutated", "detected", "rate"},
	}
	type instance struct {
		label   string
		scheme  cert.Scheme
		graph   *graph.Graph
		tampers []cert.Tamper
	}
	pm, err := reg.Build("tree-mso", registry.Params{Property: "perfect-matching"})
	if err != nil {
		return nil, err
	}
	uni, err := reg.Build("universal", registry.Params{Property: "connected"})
	if err != nil {
		return nil, err
	}
	tw, err := reg.Build("tw-mso", registry.Params{Property: "tw-bound", T: 2})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	twGraph, _ := graphgen.PartialKTree(28, 2, 0.5, rng)
	instances := []instance{
		{"tree-mso(pm)", pm, graphgen.Path(32), cert.StandardTampers()},
		{"universal(conn)", uni, graphgen.RandomTree(24, rng), cert.StandardTampers()},
		{"spanning-tree", spanning.Tree{}, graphgen.Cycle(40), cert.StandardTampers()},
		{"tw-mso(tw<=2)", tw, twGraph, append(cert.StandardTampers(), treewidth.BagTampers()...)},
	}
	const trials = 25
	for _, inst := range instances {
		honest, err := inst.scheme.Prove(inst.graph)
		if err != nil {
			return nil, fmt.Errorf("E11: %s: prove: %w", inst.label, err)
		}
		rep, err := netsim.Default.Sweep(context.Background(), inst.graph, inst.scheme, honest, inst.tampers, trials, seed)
		if err != nil {
			return nil, fmt.Errorf("E11: %s: sweep: %w", inst.label, err)
		}
		for _, st := range rep.Stats {
			table.Rows = append(table.Rows, []string{
				inst.label, st.Tamper, fmt.Sprint(st.Trials), fmt.Sprint(st.NoOps),
				fmt.Sprint(st.Mutated), fmt.Sprint(st.Detected),
				fmt.Sprintf("%.2f", st.DetectionRate()),
			})
		}
		if !rep.AllDetected {
			table.Notes = append(table.Notes,
				fmt.Sprintf("SOUNDNESS FINDING: %s accepted a corrupted assignment", inst.label))
		}
	}
	table.Notes = append(table.Notes,
		"rate = detected/mutated; no-op trials (tamper changed nothing) are excluded, not counted as escapes",
		"1.00 everywhere reproduces the one-round detection story of the self-stabilization deployment")
	return table, nil
}

// E12Treewidth measures the tree-decomposition workload: tw-mso
// certificate sizes vs n at fixed width (partial 3-trees with their
// ground-truth witness — the O(t log n) shape), and the elimination
// heuristics against exact branch-and-bound on small random graphs.
func E12Treewidth(seed int64) (*Table, error) {
	table := &Table{
		ID:    "E12",
		Title: "tw-mso — certificate size vs n at width 3; heuristic vs exact width",
		Head:  []string{"graph", "n", "max bits", "bits/(t log2 n)", "min-fill", "min-degree", "exact"},
	}
	reg := registry.Default()
	const k = 3
	for _, n := range []int{32, 128, 512, 1024} {
		rng := rand.New(rand.NewSource(seed))
		g, attach := graphgen.PartialKTree(n, k, 0.5, rng)
		s, err := reg.Build("tw-mso", registry.Params{
			Property: "tw-bound",
			T:        k,
			DecompProvider: func(gg *graph.Graph) (*treewidth.Decomposition, error) {
				return treewidth.FromKTree(gg.N(), k, attach)
			},
		})
		if err != nil {
			return nil, err
		}
		a, err := s.Prove(g)
		if err != nil {
			return nil, fmt.Errorf("E12: n=%d: %w", n, err)
		}
		res, err := cert.RunSequential(g, s, a)
		if err != nil {
			return nil, err
		}
		if !res.Accepted {
			return nil, fmt.Errorf("E12: n=%d: honest proof rejected at %v", n, res.Rejecters)
		}
		logn := log2f(float64(n))
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("partial-%d-tree", k), fmt.Sprint(n), fmt.Sprint(a.MaxBits()),
			fmt.Sprintf("%.2f", float64(a.MaxBits())/(float64(k)*logn)), "-", "-", "-",
		})
	}
	// Heuristic quality against ground truth on exactly solvable sizes.
	ctx := context.TODO()
	rng := rand.New(rand.NewSource(seed + 1))
	for trial := 0; trial < 4; trial++ {
		n := 10 + trial*2
		g := graphgen.RandomConnected(n, n/2+trial, rng)
		_, _, wf, err := treewidth.MinFillCtx(ctx, g)
		if err != nil {
			return nil, err
		}
		_, _, wd, err := treewidth.MinDegreeCtx(ctx, g)
		if err != nil {
			return nil, err
		}
		wx, _, err := treewidth.ExactCtx(ctx, g)
		if err != nil {
			return nil, err
		}
		if wf < wx || wd < wx {
			return nil, fmt.Errorf("E12: heuristic beat exact on %v", g)
		}
		table.Rows = append(table.Rows, []string{
			"random-conn", fmt.Sprint(n), "-", "-",
			fmt.Sprint(wf), fmt.Sprint(wd), fmt.Sprint(wx),
		})
	}
	table.Notes = append(table.Notes,
		"bits/(t log2 n) ~constant at fixed width reproduces the O(t log n) certificate shape",
		"heuristic columns >= exact column always; equality on most small instances")
	return table, nil
}

// E13Formulas measures the formula-first pipeline: certificate bits
// against quantifier depth and alternation count across library sentences,
// each compiled into the cheapest backend that certifies it (via the same
// registry factories the server uses). The tree rows reproduce the O(1)
// story at every depth; the tw-mso rows pay O(t log n); the universal
// model-checking rows pay O(n^2) regardless of depth — the paper's
// hierarchy, now indexed by the sentence itself.
func E13Formulas(seed int64) (*Table, error) {
	table := &Table{
		ID:    "E13",
		Title: "Formula compilation — certificate bits vs quantifier depth/alternation",
		Head:  []string{"sentence", "depth", "alt", "scheme", "graph", "n", "max bits"},
	}
	rng := rand.New(rand.NewSource(seed))
	type row struct {
		label   string
		formula logic.Formula
		scheme  string
		params  registry.Params
		graph   *graph.Graph
		gname   string
	}
	rows := []row{
		{"HasEdge", logic.HasEdge(), "existential-fo", registry.Params{}, graphgen.Path(64), "path"},
		{"ContainsPath(4)", logic.ContainsPath(4), "existential-fo", registry.Params{}, graphgen.Path(64), "path"},
		{"HasDominatingVertex", logic.HasDominatingVertex(), "depth2-fo", registry.Params{}, graphgen.Star(64), "star"},
		{"MaxDegreeAtMost(2)", logic.MaxDegreeAtMost(2), "tree-mso", registry.Params{}, graphgen.Path(64), "path"},
		{"DiameterAtMost(4)", logic.DiameterAtMost(4), "tree-mso", registry.Params{}, graphgen.Path(5), "path"},
		{"LeavesAtLeast(3)", logic.LeavesAtLeast(3), "tree-mso", registry.Params{}, graphgen.Star(64), "star"},
		{"PerfectMatching", logic.PerfectMatching(), "tree-mso", registry.Params{}, graphgen.Path(64), "path"},
		{"TwoColorable", logic.TwoColorable(), "tw-mso", registry.Params{T: 2}, graphgen.Cycle(64), "cycle"},
		{"ThreeColorable", logic.ThreeColorable(), "tw-mso", registry.Params{T: 2}, mustPartialKTree(64, 2, rng), "partial-2-tree"},
		{"TriangleFree", logic.TriangleFree(), "tw-mso", registry.Params{T: 2}, graphgen.Cycle(64), "cycle"},
		{"DiameterAtMost2", logic.DiameterAtMost2(), "universal", registry.Params{}, graphgen.Star(20), "star"},
	}
	reg := registry.Default()
	for _, r := range rows {
		p := r.params
		p.Formula = r.formula.String()
		s, err := reg.Build(r.scheme, p)
		if err != nil {
			return nil, fmt.Errorf("E13: %s: build: %w", r.label, err)
		}
		a, err := s.Prove(r.graph)
		if err != nil {
			return nil, fmt.Errorf("E13: %s: prove: %w", r.label, err)
		}
		res, err := cert.RunSequential(r.graph, s, a)
		if err != nil {
			return nil, err
		}
		if !res.Accepted {
			return nil, fmt.Errorf("E13: %s: honest proof rejected at %v", r.label, res.Rejecters)
		}
		table.Rows = append(table.Rows, []string{
			r.label,
			fmt.Sprint(logic.QuantifierDepth(r.formula)),
			fmt.Sprint(logic.Alternations(r.formula)),
			r.scheme,
			r.gname,
			fmt.Sprint(r.graph.N()),
			fmt.Sprint(a.MaxBits()),
		})
	}
	table.Notes = append(table.Notes,
		"every sentence reaches its backend through the one formula pipeline (registry ParamFormula)",
		"tree rows: bits stay O(1) as depth grows; tw rows: O(t log n); universal rows: O(n^2) at any depth")
	return table, nil
}

// mustPartialKTree builds a random partial k-tree for experiment tables.
func mustPartialKTree(n, k int, rng *rand.Rand) *graph.Graph {
	g, _ := graphgen.PartialKTree(n, k, 0.5, rng)
	return g
}

// cactusChain builds a chain of k triangles (C4-minor-free).
func cactusChain(k int) *graph.Graph {
	g := graph.New(2*k + 1)
	anchor := 0
	next := 1
	for i := 0; i < k; i++ {
		a, b := next, next+1
		next += 2
		g.MustAddEdge(anchor, a)
		g.MustAddEdge(a, b)
		g.MustAddEdge(b, anchor)
		anchor = b
	}
	return g
}

func log2f(x float64) float64 {
	l := 0.0
	for x >= 2 {
		x /= 2
		l++
	}
	return l + x - 1 // linear interpolation is plenty for reporting
}

// All runs every experiment.
func All(seed int64) ([]*Table, error) {
	var out []*Table
	steps := []func() (*Table, error){
		func() (*Table, error) { return E1TreeMSO(seed) },
		E1TypeDiscovery,
		E2FPF,
		func() (*Table, error) { return E3Treedepth(seed) },
		E4TreedepthLB,
		func() (*Table, error) { return E5KernelMSO(seed) },
		func() (*Table, error) { return E6KernelSize(seed) },
		func() (*Table, error) { return E7KernelEquivalence(seed) },
		E8SmallFragments,
		E9MinorFree,
		E10Substrates,
		func() (*Table, error) { return E11Soundness(seed) },
		func() (*Table, error) { return E12Treewidth(seed) },
		func() (*Table, error) { return E13Formulas(seed) },
	}
	for _, step := range steps {
		t, err := step()
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
