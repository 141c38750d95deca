package netsim

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/obs"
)

// countingScheme is a cert.Parser that records how often a round parsed
// and verified each vertex. Its round is the per-slot parse counts, so
// Verify also rejects a vertex whose view holds a slot not parsed exactly
// once by the time it runs; otherwise it rejects a vertex whose degree
// plus identifier is divisible by three, which spreads rejecters over the
// index range.
type countingScheme struct {
	parsed, verified []atomic.Int32
}

func newCountingScheme(n int) *countingScheme {
	return &countingScheme{parsed: make([]atomic.Int32, n), verified: make([]atomic.Int32, n)}
}

func (s *countingScheme) Name() string                       { return "counting-probe" }
func (s *countingScheme) Holds(g *graph.Graph) (bool, error) { return true, nil }
func (s *countingScheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	return make(cert.Assignment, g.N()), nil
}

func (s *countingScheme) NewRound(n int) any     { return s.parsed }
func (s *countingScheme) ReleaseRound(round any) {}

func (s *countingScheme) ParseRange(g *graph.Graph, a cert.Assignment, lo, hi int, round any) {
	parsed := round.([]atomic.Int32)
	for v := lo; v < hi; v++ {
		parsed[v].Add(1)
	}
}

func (s *countingScheme) Verify(v cert.View) bool {
	parsed := v.Round.([]atomic.Int32)
	s.verified[v.Slot].Add(1)
	if parsed[v.Slot].Load() != 1 {
		return false
	}
	for _, nb := range v.Neighbors {
		if parsed[nb.Slot].Load() != 1 {
			return false
		}
	}
	return (len(v.Neighbors)+int(v.ID))%3 != 0
}

// reversed returns g with vertex v renumbered n-1-v, so a graph whose
// edges crowd the low indices crowds the high ones instead.
func reversed(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	n := g.N()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				b.MustAddEdge(n-1-v, n-1-int(u))
			}
		}
	}
	r, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Chunk claiming covers every vertex exactly once per pass on graphs
// whose edges crowd one end of the index range: a partial 4-tree (hubs at
// low indices), its reversed copy (hubs at high indices) and a star. For
// every worker count the round parses and verifies each vertex once,
// every worker observes its busy time once, and the verdict, rejecters
// in order, is the sequential referee's.
func TestChunksCoverEveryVertexOnce(t *testing.T) {
	ktree, _ := graphgen.PartialKTree(20_000, 4, 0.85, rand.New(rand.NewSource(1)))
	graphs := map[string]*graph.Graph{
		"partial-4-tree": ktree,
		"reversed":       reversed(t, ktree),
		"star":           graphgen.Star(20_000),
	}
	for name, g := range graphs {
		n := g.N()
		seq, err := cert.RunSequential(g, newCountingScheme(n), make(cert.Assignment, n))
		if err != nil {
			t.Fatal(err)
		}
		if seq.Accepted || len(seq.Rejecters) < 2 {
			t.Fatalf("%s: %d rejecters: the comparison is one-sided", name, len(seq.Rejecters))
		}
		for _, workers := range []int{1, 2, 3, 7, 0} {
			reg := obs.NewRegistry()
			e := &Engine{Workers: workers, Obs: reg}
			s := newCountingScheme(n)
			rep, err := e.Run(context.Background(), g, s, make(cert.Assignment, n))
			if err != nil {
				t.Fatalf("%s workers %d: %v", name, workers, err)
			}
			sameVerdict(t, rep, seq)
			if want := e.EffectiveWorkers(n); rep.Workers != want {
				t.Fatalf("%s workers %d: report says %d workers, want %d", name, workers, rep.Workers, want)
			}
			for v := 0; v < n; v++ {
				if p, c := s.parsed[v].Load(), s.verified[v].Load(); p != 1 || c != 1 {
					t.Fatalf("%s workers %d: vertex %d parsed %d and verified %d times", name, workers, v, p, c)
				}
			}
			if got := reg.Histogram(MetricShardSeconds, "").Snapshot().Count; got != uint64(rep.Workers) {
				t.Fatalf("%s workers %d: %s observed %d times, want once per worker (%d)", name, workers, MetricShardSeconds, got, rep.Workers)
			}
		}
	}
}

// The chunk rule at its boundaries: one chunk per worker up to
// workers·checkInterval vertices, chunks of checkInterval vertices past
// that, and eight chunks per worker once those are larger. The chunks
// tile [0, n) in claim order, and a failed pass deals no further chunk.
func TestChunkRule(t *testing.T) {
	for _, c := range []struct{ n, workers, chunks int }{
		{1, 1, 1},
		{10, 7, 5}, // more workers than two-vertex chunks
		{300, 2, 2},
		{512, 2, 2},
		{513, 2, 3},
		{2000, 2, 8},
		{100_000, 2, 16},
		{100_000, 7, 56},
	} {
		ps := newPass(c.n, c.workers)
		if ps.chunks != c.chunks {
			t.Errorf("n=%d workers=%d: %d chunks of %d, want %d", c.n, c.workers, ps.chunks, ps.size, c.chunks)
		}
		next, count := 0, 0
		for i, lo, hi, ok := ps.claim(); ok; i, lo, hi, ok = ps.claim() {
			if i != count || lo != next || hi <= lo || hi-lo > ps.size {
				t.Fatalf("n=%d workers=%d: claim %d is chunk %d [%d, %d), want chunk %d from %d", c.n, c.workers, count, i, lo, hi, count, next)
			}
			next, count = hi, count+1
		}
		if next != c.n || count != ps.chunks {
			t.Fatalf("n=%d workers=%d: %d chunks covered [0, %d)", c.n, c.workers, count, next)
		}
	}
	ps := newPass(1000, 2)
	if _, _, _, ok := ps.claim(); !ok {
		t.Fatal("a fresh pass dealt no chunk")
	}
	ps.failed.Store(true)
	if _, _, _, ok := ps.claim(); ok {
		t.Fatal("a failed pass dealt another chunk")
	}
}
