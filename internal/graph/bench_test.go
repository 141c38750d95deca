package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/graphgen"
)

// BenchmarkBiconnectedComponents100k measures the block split on
// certbench's graph shape, a 10⁵-vertex partial 4-tree with edge-keep
// probability 0.85: one giant block and many small ones.
func BenchmarkBiconnectedComponents100k(b *testing.B) {
	g, _ := graphgen.PartialKTree(100_000, 4, 0.85, rand.New(rand.NewSource(9)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(g.BiconnectedComponents()) == 0 {
			b.Fatal("no blocks")
		}
	}
}
