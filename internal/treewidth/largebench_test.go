package treewidth

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/netsim"
)

// The large-n raw-speed set: million-vertex partial 4-trees through the
// sparse heuristics, the block-split decomposition and the full
// prove+verify round trip. The 1e5 sizes run everywhere (bench-smoke
// keeps them from bit-rotting); the 1e6 sizes take tens of seconds per
// iteration and only run with BENCH_LARGE=1 set.

// skipUnlessLarge gates the million-vertex benchmarks out of routine
// `go test -bench` runs; set BENCH_LARGE=1 to run them.
func skipUnlessLarge(b *testing.B) {
	b.Helper()
	if os.Getenv("BENCH_LARGE") == "" {
		b.Skip("set BENCH_LARGE=1 to run million-vertex benchmarks")
	}
}

// largeKTree builds the canonical large instance: a partial 4-tree with
// the default edge-keep probability, the workload the paper's compact
// certification story is about (bounded treewidth, certifiable with
// O(log n)-ish labels).
func largeKTree(b *testing.B, n int) *graph.Graph {
	b.Helper()
	g, _ := graphgen.PartialKTree(n, 4, 0.85, rand.New(rand.NewSource(9)))
	return g
}

func benchLargeDecompose(b *testing.B, n int) {
	g := largeKTree(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := HeuristicCtx(context.Background(), g)
		if err != nil {
			b.Fatal(err)
		}
		if w := d.Width(); w < 1 || w > 8 {
			b.Fatalf("implausible width %d for a partial 4-tree", w)
		}
	}
}

func BenchmarkLargeDecomposePartialKTree100k(b *testing.B) { benchLargeDecompose(b, 100_000) }

func BenchmarkLargeDecomposePartialKTree1M(b *testing.B) {
	skipUnlessLarge(b)
	benchLargeDecompose(b, 1_000_000)
}

// BenchmarkDecomposeWheel runs HeuristicCtx on a wheel with a 2¹⁶-vertex
// rim: one biconnected block of 65,537 vertices, so min-degree alone,
// eliminating the rim vertex by vertex while the hub's row loses one
// entry per step. It is the hub case of row removal: deleting each entry
// eagerly would memmove the hub's row once per rim vertex, quadratic in
// the rim.
func BenchmarkDecomposeWheel(b *testing.B) {
	g := wheel(b, 1<<16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _, err := HeuristicCtx(context.Background(), g)
		if err != nil {
			b.Fatal(err)
		}
		if w := d.Width(); w != 3 {
			b.Fatalf("wheel decomposed at width %d, want 3", w)
		}
	}
}

// benchLargeProveVerify measures the tw-mso prove + sequential-verify
// round trip with the generator-witness decomposition (width exactly 4;
// the heuristics land at 5-6 on partial k-trees, and the serving path
// amortizes whichever decomposition it has through the engine cache).
func benchLargeProveVerify(b *testing.B, n int) {
	g, attach := graphgen.PartialKTree(n, 4, 0.85, rand.New(rand.NewSource(9)))
	d, err := FromKTree(g.N(), 4, attach)
	if err != nil {
		b.Fatal(err)
	}
	prop, ok := PropertyByName("tw-bound")
	if !ok {
		b.Fatal("tw-bound property missing")
	}
	s := &MSOScheme{T: 4, Prop: prop, Decomps: DecompFunc(func(*graph.Graph) (*Decomposition, error) {
		return d, nil
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

func BenchmarkLargeTWMSOProveVerify100k(b *testing.B) { benchLargeProveVerify(b, 100_000) }

func BenchmarkLargeTWMSOProveVerify1M(b *testing.B) {
	skipUnlessLarge(b)
	benchLargeProveVerify(b, 1_000_000)
}

// BenchmarkLargeTWMSOProve100k measures the tw-mso prove alone on the
// certbench instance — a 10⁵-vertex partial 4-tree, tw-bound, t=6 —
// with its heuristic decomposition computed before the timer and handed
// over through DecompFunc: validation and the encode pass, the layers
// certify-large's prove runs. tw-bound's matrix is valid, so the prove
// takes no nice conversion and no DP (BenchmarkLargeTWMSOProve3Colorable20k
// keeps a prove-level number for that path).
func BenchmarkLargeTWMSOProve100k(b *testing.B) {
	g := largeKTree(b, 100_000)
	d, _, err := HeuristicCtx(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	benchProve(b, g, d, 6, "tw-bound")
}

// BenchmarkLargeTWMSOProve3Colorable20k measures a prove that runs the
// nice conversion and the EMSO DP: 3-colorable at t=2 on a 2·10⁴-vertex
// partial 2-tree, its heuristic decomposition (width 2) computed before
// the timer — validation, nice conversion, DP, witness re-check and the
// encode pass, which writes the witness bits.
func BenchmarkLargeTWMSOProve3Colorable20k(b *testing.B) {
	g, _ := graphgen.PartialKTree(20_000, 2, 0.85, rand.New(rand.NewSource(9)))
	d, _, err := HeuristicCtx(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	benchProve(b, g, d, 2, "3-colorable")
}

// benchProve times ProveCtx on g under the named property and width
// bound t, with d handed over through DecompFunc.
func benchProve(b *testing.B, g *graph.Graph, d *Decomposition, t int, property string) {
	prop, ok := PropertyByName(property)
	if !ok {
		b.Fatalf("%s property missing", property)
	}
	s := &MSOScheme{T: t, Prop: prop, Decomps: DecompFunc(func(*graph.Graph) (*Decomposition, error) {
		return d, nil
	})}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ProveCtx(context.Background(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLargeNiceDP100k measures the nice conversion and the EMSO DP
// alone on the certbench instance — a 10⁵-vertex partial 4-tree, its
// heuristic decomposition computed before the timer, tw-bound — the two
// layers certify-large's ledger probe times as treewidth.nice and
// treewidth.emso_dp.
func BenchmarkLargeNiceDP100k(b *testing.B) {
	g := largeKTree(b, 100_000)
	d, _, err := HeuristicCtx(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	prop, ok := PropertyByName("tw-bound")
	if !ok {
		b.Fatal("tw-bound property missing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nice, err := MakeNiceCtx(context.Background(), d, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok, err := SolveEMSOCtx(context.Background(), g, nice, prop.Phi); err != nil || !ok {
			b.Fatalf("solve: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkLargeTWMSOVerify100k measures one verification round over
// honest tw-mso certificates of the certbench graph shape — a 10⁵-vertex
// partial 4-tree, heuristic decomposition, t=6 — on the sequential
// referee and on the sharded simulator, with GOMAXPROCS workers (netsim)
// and with one (netsim-1): their ratio is the simulator's scaling over
// workers. Proving happens before the timer: this is the read path
// alone, the layer the parse-once round (MSOScheme.ParseRange) moves.
func BenchmarkLargeTWMSOVerify100k(b *testing.B) {
	benchVerify(b, largeKTree(b, 100_000), 6, "tw-bound")
}

// BenchmarkLargeTWMSOVerify3Colorable20k measures a verification round
// that runs the clique-tuple check: 3-colorable at t=2 on a 2·10⁴-vertex
// partial 2-tree, whose views read their neighbours' rows and witness
// words from the round's records to build the evidence adjacency.
func BenchmarkLargeTWMSOVerify3Colorable20k(b *testing.B) {
	g, _ := graphgen.PartialKTree(20_000, 2, 0.85, rand.New(rand.NewSource(9)))
	benchVerify(b, g, 2, "3-colorable")
}

// benchVerify proves g under the named property and width bound t
// before the timer, then times one verification round of the honest
// certificates on the sequential referee and on the sharded simulator
// with GOMAXPROCS workers and with one.
func benchVerify(b *testing.B, g *graph.Graph, t int, property string) {
	prop, ok := PropertyByName(property)
	if !ok {
		b.Fatalf("%s property missing", property)
	}
	s := &MSOScheme{T: t, Prop: prop}
	a, err := s.ProveCtx(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := cert.RunSequentialCtx(context.Background(), g, s, a)
			if err != nil || !res.Accepted {
				b.Fatalf("rejected: %v %v", err, res.Rejecters)
			}
		}
	})
	for _, c := range []struct {
		name    string
		workers int
	}{{"netsim", 0}, {"netsim-1", 1}} {
		b.Run(c.name, func(b *testing.B) {
			e := &netsim.Engine{Workers: c.workers}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(context.Background(), g, s, a)
				if err != nil || !rep.Accepted {
					b.Fatalf("rejected: %v %v", err, rep.Rejecters)
				}
			}
		})
	}
}
