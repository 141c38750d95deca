package graphgen

import (
	"math/rand"
	"os"
	"testing"
)

// Generator throughput at the large-n sizes: construction must be
// O(n+m) and stay a small fraction of the certification pipeline it
// feeds. Million-vertex sizes run only with BENCH_LARGE=1 set.

func skipUnlessLarge(b *testing.B) {
	b.Helper()
	if os.Getenv("BENCH_LARGE") == "" {
		b.Skip("set BENCH_LARGE=1 to run million-vertex benchmarks")
	}
}

func benchKTree(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, _ := KTree(n, 4, rand.New(rand.NewSource(9)))
		if g.N() != n {
			b.Fatalf("n=%d", g.N())
		}
	}
}

func benchPartialKTree(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, _ := PartialKTree(n, 4, 0.85, rand.New(rand.NewSource(9)))
		if g.N() != n {
			b.Fatalf("n=%d", g.N())
		}
	}
}

func BenchmarkKTree100k(b *testing.B)        { benchKTree(b, 100_000) }
func BenchmarkPartialKTree100k(b *testing.B) { benchPartialKTree(b, 100_000) }

func BenchmarkKTree1M(b *testing.B) {
	skipUnlessLarge(b)
	benchKTree(b, 1_000_000)
}

func BenchmarkPartialKTree1M(b *testing.B) {
	skipUnlessLarge(b)
	benchPartialKTree(b, 1_000_000)
}
