package treewidth

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
)

// Heuristic decomposition of partial 3-trees — the per-graph artifact the
// engine's decomposition cache amortizes. Multiple sizes pin the scaling
// of the incremental bitset engine (the selection scan is quadratic, the
// count maintenance near-linear in fill work).
func benchMinFill(b *testing.B, n int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g, _ := graphgen.PartialKTree(n, 3, 0.5, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := MinFillCtx(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinFillPartialKTree1000(b *testing.B) { benchMinFill(b, 1000) }
func BenchmarkMinFillPartialKTree4000(b *testing.B) { benchMinFill(b, 4000) }

func BenchmarkMinDegreePartialKTree1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, _ := graphgen.PartialKTree(1000, 3, 0.5, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := MinDegreeCtx(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEliminationEngines runs the dense bitset engine against the
// sparse engine on inputs useBitset sends to the bitset side: small
// partial 2- and 4-trees under the min-fill plus min-degree contest (the
// batch-small shape), and G(n, 0.05) under min-degree, dense enough
// (64m >= n²) to stay on the bitset side up to n=500.
func BenchmarkEliminationEngines(b *testing.B) {
	type input struct {
		name    string
		g       *graph.Graph
		contest bool
	}
	var inputs []input
	for _, k := range []int{2, 4} {
		for _, n := range []int{16, 32, 64, 128} {
			g, _ := graphgen.PartialKTree(n, k, 0.5, rand.New(rand.NewSource(int64(n+k))))
			inputs = append(inputs, input{fmt.Sprintf("partial-%d-tree-n=%d", k, n), g, true})
		}
	}
	for _, n := range []int{200, 500} {
		g := randomGraphForDiff(rand.New(rand.NewSource(int64(n))), n, 0.05)
		inputs = append(inputs, input{fmt.Sprintf("gnp-0.05-n=%d", n), g, false})
	}
	engines := []struct {
		name string
		run  func(*graph.Graph, heuristicScore) (*Decomposition, []int, int, error)
	}{{"bitset", bitsetDecomp}, {"sparse", func(g *graph.Graph, score heuristicScore) (*Decomposition, []int, int, error) {
		return sparseDecomp(g, score, false)
	}}}
	for _, in := range inputs {
		if !useBitset(in.g) {
			b.Fatalf("%s: useBitset routes it to the sparse engine", in.name)
		}
		for _, e := range engines {
			b.Run(in.name+"/"+e.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if in.contest {
						if _, _, _, err := e.run(in.g, scoreFill); err != nil {
							b.Fatal(err)
						}
					}
					if _, _, _, err := e.run(in.g, scoreDegree); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Exact branch-and-bound at the property-test scale.
func BenchmarkExactRandom16(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := graphgen.RandomConnected(16, 10, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ExactCtx(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// Full tw-mso prove+verify round trip with the generator witness: what one
// served /certify request costs.
func BenchmarkTWMSOProveVerify(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	// Width 2 keeps the instance 3-colorable by construction (a partial
	// 3-tree can retain a K4).
	g, attach := graphgen.PartialKTree(256, 2, 0.5, rng)
	prop, _ := PropertyByName("3-colorable")
	s := &MSOScheme{T: 2, Prop: prop, Decomps: DecompFunc(func(gg *graph.Graph) (*Decomposition, error) {
		return FromKTree(gg.N(), 2, attach)
	})}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := s.Prove(g)
		if err != nil {
			b.Fatal(err)
		}
		res, err := cert.RunSequential(g, s, a)
		if err != nil || !res.Accepted {
			b.Fatalf("rejected: %v %v", err, res.Rejecters)
		}
	}
}

// Verification alone, per round: the steady-state self-stabilization cost.
func BenchmarkTWMSOVerifyOnly(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g, attach := graphgen.PartialKTree(1024, 3, 0.5, rng)
	prop, _ := PropertyByName("tw-bound")
	s := &MSOScheme{T: 3, Prop: prop, Decomps: DecompFunc(func(gg *graph.Graph) (*Decomposition, error) {
		return FromKTree(gg.N(), 3, attach)
	})}
	a, err := s.Prove(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cert.RunSequential(g, s, a)
		if err != nil || !res.Accepted {
			b.Fatalf("rejected: %v", err)
		}
	}
}

// BenchmarkEMSODP measures the generalized Courcelle DP (E13 timings):
// cost of SolveEMSO per sentence on a width-2 instance, against the
// hardcoded colouring DP it replaced.
func BenchmarkEMSODP(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g, _ := graphgen.PartialKTree(256, 2, 0.5, rng)
	d, _, err := HeuristicCtx(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	nice, err := MakeNiceCtx(context.Background(), d, 0)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		phi  *EMSO
	}{
		{"tw-bound", MustCompileEMSO(logic.TrueSentence())},
		{"2-colorable", MustCompileEMSO(logic.TwoColorable())},
		{"3-colorable", MustCompileEMSO(logic.ThreeColorable())},
		{"triangle-free", MustCompileEMSO(logic.TriangleFree())},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := SolveEMSOCtx(context.Background(), g, nice, tc.phi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("legacy-color-dp-3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := ColorGraph(g, nice, 3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEMSODPJoinHeavy runs the DP over the join-heaviest shape a
// decomposition can take: a book graph's spine bag with 200 triangle
// bags as children folds through 199 binary joins, so the
// merge-intersect path dominates instead of the introduce tables.
func BenchmarkEMSODPJoinHeavy(b *testing.B) {
	g, d := bookGraph(200)
	nice, err := MakeNiceCtx(context.Background(), d, 0)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		phi  *EMSO
	}{
		{"tw-bound", MustCompileEMSO(logic.TrueSentence())},
		{"3-colorable", MustCompileEMSO(logic.ThreeColorable())},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := SolveEMSOCtx(context.Background(), g, nice, tc.phi); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileEMSO measures formula-to-DP compilation, dominated by
// the clique-locality world enumeration.
func BenchmarkCompileEMSO(b *testing.B) {
	sentences := map[string]logic.Formula{
		"2-colorable":   logic.TwoColorable(),
		"3-colorable":   logic.ThreeColorable(),
		"triangle-free": logic.TriangleFree(),
	}
	for name, f := range sentences {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CompileEMSO(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
