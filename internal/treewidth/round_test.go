package treewidth

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
)

// TestVerifyReadsOnlyItsViewSlots holds Verify to the parse round's
// locality contract: a round holds every vertex's parse, but Verify may
// read it only at its own view's slots. For every vertex v of honest and
// tampered rounds on partial k-trees with shuffled identifiers (one of
// them wide enough for its records to spill), a second round is parsed
// from an assignment in which every certificate outside {v} ∪ N(v) is
// replaced by another vertex's or by the empty certificate; v's view is
// the same in both, and so must be its verdict.
func TestVerifyReadsOnlyItsViewSlots(t *testing.T) {
	tampers := append(cert.StandardTampers(), BagTampers()...)
	checked, rejected := 0, 0
	for _, c := range []struct {
		prop    string
		n, k, t int
		seed    int64
	}{
		{"tw-bound", 40, 2, 2, 1},
		{"3-colorable", 40, 2, 2, 2},
		{"2-colorable", 36, 1, 1, 3},
		{"tw-bound", 24, recordBag + 1, recordBag + 2, 4},
	} {
		prop, ok := PropertyByName(c.prop)
		if !ok {
			t.Fatalf("%s missing", c.prop)
		}
		rng := rand.New(rand.NewSource(c.seed))
		g, attach := graphgen.PartialKTree(c.n, c.k, 0.8, rng)
		g = shuffledIDs(t, g, rng)
		d, err := FromKTree(g.N(), c.k, attach)
		if err != nil {
			t.Fatal(err)
		}
		s := &MSOScheme{T: c.t, Prop: prop, Decomps: DecompFunc(func(*graph.Graph) (*Decomposition, error) { return d, nil })}
		honest, err := s.Prove(g)
		if err != nil {
			t.Fatalf("%s on a partial %d-tree: %v", c.prop, c.k, err)
		}
		rounds := []cert.Assignment{honest}
		for _, tm := range tampers {
			for trial := 0; trial < 2; trial++ {
				if a, mutated := tm.Apply(honest, rng); mutated {
					rounds = append(rounds, a)
				}
			}
		}
		for trial := 0; trial < 4; trial++ {
			rounds = append(rounds, resealedFlip(g, honest, rng))
		}
		n := g.N()
		inView := make([]bool, n)
		for ri, a := range rounds {
			round := s.NewRound(n)
			s.ParseRange(g, a, 0, n, round)
			for v := 0; v < n; v++ {
				clear(inView)
				inView[v] = true
				for _, u := range g.Neighbors(v) {
					inView[u] = true
				}
				other := make(cert.Assignment, n)
				for u := range other {
					switch {
					case inView[u]:
						other[u] = a[u]
					case rng.Intn(3) > 0:
						other[u] = a[rng.Intn(n)]
					}
				}
				otherRound := s.NewRound(n)
				s.ParseRange(g, other, 0, n, otherRound)
				want := s.Verify(cert.AssembleView(g, a, round, v, nil))
				if got := s.Verify(cert.AssembleView(g, other, otherRound, v, nil)); got != want {
					t.Fatalf("%s k=%d round %d vertex %d: verdict %v over the round, %v once certificates outside the view change",
						c.prop, c.k, ri, v, want, got)
				}
				checked++
				if !want {
					rejected++
				}
			}
		}
	}
	if rejected == 0 || rejected == checked {
		t.Fatalf("%d of %d views rejected: the comparison is one-sided", rejected, checked)
	}
}

// roundBytes returns the bytes one sequential verification round of a
// under s allocates, the least of three rounds after a warm-up (the
// verifier's scratch pool may drop an entry now and then); every round
// must accept.
func roundBytes(t *testing.T, g *graph.Graph, s *MSOScheme, a cert.Assignment) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := cert.RunSequentialCtx(context.Background(), g, s, a)
		runtime.ReadMemStats(&after)
		if err != nil || !res.Accepted {
			t.Fatalf("%s: honest round rejected: %v %v", s.Name(), err, res.Rejecters)
		}
		if i > 0 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return least
}

// TestVerifyRoundHugeT: round memory does not grow with the width bound,
// which certserver takes from the request. A tw-bound round at T = 2³⁰
// over a 200-vertex partial 2-tree accepts and allocates at most the same
// round at T=2 plus 96 bytes per vertex: the record stride is capped at
// 3 + recordBag words, and the spill adds one slice header per slot. A
// hostile header cannot size a spill past its certificate's length.
func TestVerifyRoundHugeT(t *testing.T) {
	g, attach := graphgen.PartialKTree(200, 2, 0.8, rand.New(rand.NewSource(5)))
	d, err := FromKTree(g.N(), 2, attach)
	if err != nil {
		t.Fatal(err)
	}
	bytesAt := func(width int) uint64 {
		s := &MSOScheme{T: width, Decomps: DecompFunc(func(*graph.Graph) (*Decomposition, error) { return d, nil })}
		a, err := s.Prove(g)
		if err != nil {
			t.Fatalf("T=%d: %v", width, err)
		}
		return roundBytes(t, g, s, a)
	}
	small, huge := bytesAt(2), bytesAt(1<<30)
	t.Logf("round bytes: %d at T=2, %d at T=2^30", small, huge)
	if limit := small + 96*uint64(g.N()); huge > limit {
		t.Fatalf("a round at T=2^30 allocates %d bytes, above T=2's %d plus 96 per vertex (%d)", huge, small, limit)
	}
	// A header claiming more entries than the certificate has bits for
	// is refused before the spill is sized, so spill memory stays linear
	// in certificate length: the body carries two bits per claimed entry,
	// fewer than its maxIDBits-bit entries and row bits need, and the
	// parse allocates nothing.
	var rd parseRound
	rd.init(1<<30, 0, 1)
	c := sealed(hostileBodies["header-past-body"], 7)
	if allocs := testing.AllocsPerRun(10, func() { rd.parse(0, 7, c) }); allocs != 0 {
		t.Fatalf("parsing a header past its body allocates %.0f times", allocs)
	}
	if rec, _, _ := rd.entry(0); rec[recBagID] != 0 {
		t.Fatal("a header past its body parsed as well-formed")
	}
}

// TestVerifyRoundBytesPerVertex caps one sequential round of a tw-bound
// T=6 proof of a 20,000-vertex partial 4-tree (the certify-large shape)
// at 95 allocated bytes per vertex: one record of 3 + 7 words per slot
// and one neighbour-view buffer of the largest degree fit (about 86),
// a buffer grown by doubling (about 99) or a boxed payload per vertex
// with its bag and row in separate slabs (about 175) does not.
func TestVerifyRoundBytesPerVertex(t *testing.T) {
	g, _ := graphgen.PartialKTree(20_000, 4, 0.85, rand.New(rand.NewSource(1)))
	prop, _ := PropertyByName("tw-bound")
	s := &MSOScheme{T: 6, Prop: prop}
	a, err := s.ProveCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(roundBytes(t, g, s, a)) / float64(g.N())
	t.Logf("%d vertices: %.1f bytes allocated per vertex", g.N(), per)
	if per > 95 {
		t.Errorf("a verification round allocates %.1f bytes per vertex, want at most 95", per)
	}
}
