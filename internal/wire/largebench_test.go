package wire

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/treewidth"
)

// Stream-format throughput at the sizes the format exists for. The 1e5
// sizes run everywhere; the million-vertex pair is gated behind
// BENCH_LARGE=1.

func skipUnlessLarge(b *testing.B) {
	b.Helper()
	if os.Getenv("BENCH_LARGE") == "" {
		b.Skip("set BENCH_LARGE=1 to run million-vertex benchmarks")
	}
}

func largeStreamGraph(b *testing.B, n int) *graph.Graph {
	b.Helper()
	g, _ := graphgen.PartialKTree(n, 4, 0.85, rand.New(rand.NewSource(9)))
	return g
}

func benchStreamEncode(b *testing.B, n int) {
	g := largeStreamGraph(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := EncodeGraphStream(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

func benchStreamDecode(b *testing.B, n int) {
	g := largeStreamGraph(b, n)
	var buf bytes.Buffer
	if err := EncodeGraphStream(&buf, g); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeGraphStream(bytes.NewReader(raw), StreamLimits{})
		if err != nil {
			b.Fatal(err)
		}
		if got.M() != g.M() {
			b.Fatalf("decoded m=%d, want %d", got.M(), g.M())
		}
	}
}

func BenchmarkStreamEncodePartialKTree100k(b *testing.B) { benchStreamEncode(b, 100_000) }
func BenchmarkStreamDecodePartialKTree100k(b *testing.B) { benchStreamDecode(b, 100_000) }

func BenchmarkStreamEncodePartialKTree1M(b *testing.B) {
	skipUnlessLarge(b)
	benchStreamEncode(b, 1_000_000)
}

func BenchmarkStreamDecodePartialKTree1M(b *testing.B) {
	skipUnlessLarge(b)
	benchStreamDecode(b, 1_000_000)
}

// BenchmarkAssignmentFromStrings100k decodes the /verify certificate
// strings of an honest tw-mso proof (tw-bound, t=6) of the 10⁵-vertex
// partial 4-tree, the shape of the certificates a verify round reads.
func BenchmarkAssignmentFromStrings100k(b *testing.B) {
	g := largeStreamGraph(b, 100_000)
	prop, ok := treewidth.PropertyByName("tw-bound")
	if !ok {
		b.Fatal("tw-bound property missing")
	}
	a, err := (&treewidth.MSOScheme{T: 6, Prop: prop}).Prove(g)
	if err != nil {
		b.Fatal(err)
	}
	strs := AssignmentToStrings(a)
	b.SetBytes(int64(a.TotalBits()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssignmentFromStrings(strs); err != nil {
			b.Fatal(err)
		}
	}
}
