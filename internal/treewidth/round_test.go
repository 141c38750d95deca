package treewidth

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/netsim"
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
// must accept. A cold round starts from an empty round pool, so it
// allocates its records as the first round of a process does; a warm one
// reuses the storage the round before it released.
func roundBytes(t *testing.T, g *graph.Graph, s *MSOScheme, a cert.Assignment, cold bool) uint64 {
	t.Helper()
	least := uint64(math.MaxUint64)
	for i := 0; i < 4; i++ {
		if cold {
			// Two collections empty every sync.Pool, roundPool among them.
			runtime.GC()
			runtime.GC()
		}
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
// which certserver takes from the request. A cold tw-bound round at
// T = 2³⁰ over a 200-vertex partial 2-tree accepts and allocates at most
// the same cold round at T=2 plus 96 bytes per vertex: the record stride
// is capped at 3 + recordBag words, and the spill adds one slice header
// per slot. A hostile header cannot size a spill past its certificate's
// length.
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
		return roundBytes(t, g, s, a, true)
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

// TestVerifyRoundBytesPerVertex caps the allocation of one sequential
// round of a tw-bound T=6 proof of a 20,000-vertex partial 4-tree (the
// certify-large shape). A cold round, whose records come fresh, may
// allocate 95 bytes per vertex: one record of 3 + 7 words per slot and
// one neighbour-view buffer of the largest degree fit (about 86), a
// buffer grown by doubling (about 99) or a boxed payload per vertex with
// its bag and row in separate slabs (about 175) does not. A warm round
// reuses the records the round before it released and may allocate only
// its view buffer, rounded up to whole 8 KiB pages as the allocator
// rounds a large object: records allocated afresh every round (86 bytes
// per vertex) do not fit.
func TestVerifyRoundBytesPerVertex(t *testing.T) {
	g, _ := graphgen.PartialKTree(20_000, 4, 0.85, rand.New(rand.NewSource(1)))
	prop, _ := PropertyByName("tw-bound")
	s := &MSOScheme{T: 6, Prop: prop}
	a, err := s.ProveCtx(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(roundBytes(t, g, s, a, true)) / float64(g.N())
	t.Logf("%d vertices: %.1f bytes allocated per vertex in a cold round", g.N(), per)
	if per > 95 {
		t.Errorf("a cold verification round allocates %.1f bytes per vertex, want at most 95", per)
	}
	if raceEnabled {
		return // sync.Pool drops items at random under the race detector
	}
	warm := roundBytes(t, g, s, a, false)
	viewBuffer := uint64(g.MaxDegree()) * uint64(unsafe.Sizeof(cert.NeighborView{}))
	t.Logf("warm round: %d bytes, view buffer %d", warm, viewBuffer)
	if limit := (viewBuffer + 8191) &^ 8191; warm > limit {
		t.Errorf("a warm verification round allocates %d bytes, want at most its %d-byte view buffer in whole pages (%d)", warm, viewBuffer, limit)
	}
}

// TestPooledRoundMatchesFresh: a round whose storage served earlier
// rounds gives every vertex the verdict a fresh round and
// verifyReference give it. One round is reused across graphs of growing
// and shrinking n, width bounds T = 9, 2 and 6 (T=9's 10-entry bags spill
// past recordBag) and properties with and without witness words, on
// honest, tampered and resealed-flip assignments, so each parse lands on
// records, spills and witness words another round left behind. Each
// case's first round replays a random half of the certificates at other
// vertices, whose records are then malformed, so malformed records too
// meet what the previous case left; "wide-big" follows "wide-words" with
// more slots than the spill held, so its spill is new while its records
// are not. The same rounds also run through both runners, which take
// their rounds from the pool and release them; several netsim rounds
// then run at once on one scheme, so the race detector sees pooled
// rounds change hands between concurrent runs.
func TestPooledRoundMatchesFresh(t *testing.T) {
	type roundCase struct {
		name    string
		n, k, t int
		prop    string
		seed    int64
		witness bool // random witness words on the tw-bound proof
	}
	cases := []roundCase{
		{"wide", 40, recordBag + 1, recordBag + 1, "tw-bound", 1, false},
		{"3-colorable", 300, 2, 2, "3-colorable", 2, false},
		{"tw-bound-T6", 120, 4, 6, "tw-bound", 3, false},
		{"wide-words", 30, recordBag + 1, recordBag + 1, "3-colorable", 4, true},
		{"wide-big", 120, recordBag + 1, recordBag + 1, "tw-bound", 7, false},
		{"3-colorable-small", 50, 2, 2, "3-colorable", 5, false},
		{"tw-bound-T2", 200, 2, 2, "tw-bound", 6, false},
	}
	tampers := append(cert.StandardTampers(), BagTampers()...)
	pooled := &parseRound{}
	type concurrentRound struct {
		g    *graph.Graph
		s    *MSOScheme
		a    cert.Assignment
		want []int
	}
	var concurrent []concurrentRound
	accepted, rejected := 0, 0
	for _, c := range cases {
		prop, ok := PropertyByName(c.prop)
		if !ok {
			t.Fatalf("%s missing", c.prop)
		}
		rng := rand.New(rand.NewSource(c.seed))
		g, attach := graphgen.PartialKTree(c.n, c.k, 0.8, rng)
		d, err := FromKTree(g.N(), c.k, attach)
		if err != nil {
			t.Fatal(err)
		}
		decomps := DecompFunc(func(*graph.Graph) (*Decomposition, error) { return d, nil })
		s := &MSOScheme{T: c.t, Prop: prop, Decomps: decomps}
		var honest cert.Assignment
		if c.witness {
			base, err := (&MSOScheme{T: c.t, Decomps: decomps}).Prove(g)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			honest = withWitness(t, g, base, prop.Phi.NumSets(), rng)
		} else if honest, err = s.Prove(g); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n, m := g.N(), prop.Phi.NumSets()
		replayed := honest.Clone()
		for v := range replayed {
			if rng.Intn(2) == 0 {
				replayed[v] = honest[rng.Intn(n)]
			}
		}
		rounds := []cert.Assignment{replayed, honest}
		for _, tm := range tampers {
			if a, mutated := tm.Apply(honest, rng); mutated {
				rounds = append(rounds, a)
			}
		}
		for trial := 0; trial < 3; trial++ {
			rounds = append(rounds, resealedFlip(g, honest, rng))
		}
		for ri, a := range rounds {
			pooled.init(s.T, m, n)
			s.ParseRange(g, a, 0, n, pooled)
			fresh := &parseRound{}
			fresh.init(s.T, m, n)
			s.ParseRange(g, a, 0, n, fresh)
			var want []int
			for v := 0; v < n; v++ {
				ref := verifyReference(s, cert.ViewOf(g, a, v))
				onFresh := s.Verify(cert.AssembleView(g, a, fresh, v, nil))
				onPooled := s.Verify(cert.AssembleView(g, a, pooled, v, nil))
				if onFresh != ref || onPooled != ref {
					t.Fatalf("%s round %d vertex %d: pooled round %v, fresh round %v, reference %v", c.name, ri, v, onPooled, onFresh, ref)
				}
				if ref {
					accepted++
				} else {
					rejected++
					want = append(want, v)
				}
			}
			seq, err := cert.RunSequential(g, s, a)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := (&netsim.Engine{Workers: 3}).Run(context.Background(), g, s, a)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(seq.Rejecters, want) || !slices.Equal(rep.Rejecters, want) {
				t.Fatalf("%s round %d: rejecters %v sequential, %v netsim, want %v", c.name, ri, seq.Rejecters, rep.Rejecters, want)
			}
			concurrent = append(concurrent, concurrentRound{g, s, a, want})
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d accepting and %d rejecting verdicts: the comparison is one-sided", accepted, rejected)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := &netsim.Engine{Workers: 2}
			for j := range concurrent {
				i := (j + w*len(concurrent)/4) % len(concurrent)
				r := concurrent[i]
				rep, err := e.Run(context.Background(), r.g, r.s, r.a)
				if err != nil || !slices.Equal(rep.Rejecters, r.want) {
					t.Errorf("concurrent round %d: rejecters %v (err %v), want %v", i, rep.Rejecters, err, r.want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
