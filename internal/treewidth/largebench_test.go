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
// over through DecompFunc: validation, the nice conversion, the EMSO DP,
// payload assembly and encoding, the layers certify-large's prove runs.
func BenchmarkLargeTWMSOProve100k(b *testing.B) {
	g := largeKTree(b, 100_000)
	d, _, err := HeuristicCtx(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	prop, ok := PropertyByName("tw-bound")
	if !ok {
		b.Fatal("tw-bound property missing")
	}
	s := &MSOScheme{T: 6, Prop: prop, Decomps: DecompFunc(func(*graph.Graph) (*Decomposition, error) {
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

// BenchmarkLargeTWMSOVerify100k measures one verification round over
// honest tw-mso certificates of the certbench graph shape — a 10⁵-vertex
// partial 4-tree, heuristic decomposition, t=6 — on the sequential
// referee and on the sharded simulator (GOMAXPROCS workers). Proving
// happens before the timer: this is the read path alone, the layer the
// parse-once round (MSOScheme.ParseRange) moves.
func BenchmarkLargeTWMSOVerify100k(b *testing.B) {
	g := largeKTree(b, 100_000)
	prop, ok := PropertyByName("tw-bound")
	if !ok {
		b.Fatal("tw-bound property missing")
	}
	s := &MSOScheme{T: 6, Prop: prop}
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
	b.Run("netsim", func(b *testing.B) {
		e := &netsim.Engine{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := e.Run(context.Background(), g, s, a)
			if err != nil || !rep.Accepted {
				b.Fatalf("rejected: %v %v", err, rep.Rejecters)
			}
		}
	})
}
