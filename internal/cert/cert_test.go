package cert

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/graphgen"
)

// degreeAtMost certifies "maximum degree <= D" — a locally checkable
// property needing empty certificates; it exercises the framework plumbing.
type degreeAtMost struct{ D int }

func (s degreeAtMost) Name() string { return "degree-at-most" }

func (s degreeAtMost) Holds(g *graph.Graph) (bool, error) {
	return g.MaxDegree() <= s.D, nil
}

func (s degreeAtMost) Prove(g *graph.Graph) (Assignment, error) {
	return make(Assignment, g.N()), nil
}

func (s degreeAtMost) Verify(v View) bool { return v.Degree() <= s.D }

var _ Scheme = degreeAtMost{}

func TestAssignmentSizes(t *testing.T) {
	a := Assignment{nil, {1, 0}, {1, 1, 1}}
	if a.MaxBits() != 3 {
		t.Errorf("MaxBits = %d, want 3", a.MaxBits())
	}
	if a.TotalBits() != 5 {
		t.Errorf("TotalBits = %d, want 5", a.TotalBits())
	}
}

func TestAssignmentCloneIsDeep(t *testing.T) {
	a := Assignment{{1, 0}}
	b := a.Clone()
	b[0][0] = 0
	if a[0][0] != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestViewOfHidesEdgesAmongNeighbors(t *testing.T) {
	g := graphgen.Cycle(4)
	a := make(Assignment, 4)
	view := ViewOf(g, a, 0)
	if view.Degree() != 2 {
		t.Fatalf("degree = %d", view.Degree())
	}
	// Views must be sorted by neighbour ID.
	for i := 1; i < len(view.Neighbors); i++ {
		if view.Neighbors[i-1].ID >= view.Neighbors[i].ID {
			t.Error("neighbour views not sorted")
		}
	}
	if _, ok := view.NeighborByID(g.IDOf(1)); !ok {
		t.Error("missing neighbour 1")
	}
	if _, ok := view.NeighborByID(g.IDOf(2)); ok {
		t.Error("non-neighbour visible in view")
	}
}

func TestRunSequentialCompletenessAndRejection(t *testing.T) {
	s := degreeAtMost{D: 2}
	// Yes-instance: cycle (all degrees 2).
	g := graphgen.Cycle(6)
	a, res, err := ProveAndVerify(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || a.MaxBits() != 0 {
		t.Fatalf("cycle rejected or non-empty certs: %+v", res)
	}
	// No-instance: star K_{1,4} (center degree 4). The center must reject.
	star := graphgen.Star(5)
	res, err = RunSequential(star, s, make(Assignment, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("star accepted by degree-at-most-2")
	}
	if len(res.Rejecters) != 1 || res.Rejecters[0] != 0 {
		t.Errorf("rejecters = %v, want [0]", res.Rejecters)
	}
}

func TestRunSequentialSizeMismatch(t *testing.T) {
	if _, err := RunSequential(graphgen.Path(3), degreeAtMost{D: 5}, make(Assignment, 2)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestProbeSoundnessRejectsOnNoInstance(t *testing.T) {
	s := degreeAtMost{D: 2}
	star := graphgen.Star(6)
	rng := rand.New(rand.NewSource(5))
	rep, err := ProbeSoundness(star, s, nil, 8, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breaches != 0 {
		t.Fatalf("%d soundness breaches: %v", rep.Breaches, rep.Breach)
	}
}

func TestProbeSoundnessRequiresNoInstance(t *testing.T) {
	s := degreeAtMost{D: 10}
	rng := rand.New(rand.NewSource(5))
	if _, err := ProbeSoundness(graphgen.Path(4), s, nil, 4, 5, rng); err == nil {
		t.Fatal("yes-instance accepted by ProbeSoundness")
	}
}

func TestTampersActuallyChange(t *testing.T) {
	honest := Assignment{{1, 1, 1, 1}, {0, 0, 0, 0}}
	rng := rand.New(rand.NewSource(2))
	if a, mutated := FlipBits(1).Apply(honest, rng); !mutated || assignmentsEqual(a, honest) {
		t.Error("FlipBits(1) no-op")
	}
	if a, mutated := SwapCertificates().Apply(honest, rng); !mutated || assignmentsEqual(a, honest) {
		t.Error("SwapCertificates no-op")
	}
	if a, mutated := TruncateOne().Apply(honest, rng); !mutated || (len(a[0]) == 4 && len(a[1]) == 4) {
		t.Error("TruncateOne no-op")
	}
}

// TestTamperMutationFlagMatchesReality is the regression for the no-op
// accounting bug: every tamper's reported flag must agree with a byte-wise
// comparison of input and output, on adversarial corner cases (identical
// certificates, all-empty assignments) as well as random ones.
func TestTamperMutationFlagMatchesReality(t *testing.T) {
	cases := []Assignment{
		{},                           // empty assignment
		{nil},                        // single empty certificate
		{nil, nil, nil},              // all-empty: FlipBits/TruncateOne must report no-op
		{{1, 0, 1}, {1, 0, 1}},       // identical certs: swap must report no-op
		{{1}, {0}},                   // one-bit certs
		{{1, 1, 1, 1}, {0, 0, 0, 0}}, // differing certs
		{{1, 0}, nil, {1, 0, 1, 1}},  // mixed empty / non-empty
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for ci, honest := range cases {
			for _, tm := range StandardTampers() {
				out, mutated := tm.Apply(honest, rng)
				if really := !assignmentsEqual(out, honest); mutated != really {
					t.Fatalf("case %d seed %d: %s reported mutated=%v but assignment changed=%v",
						ci, seed, tm.Name, mutated, really)
				}
			}
		}
	}
}

func TestTamperNoOpsOnIdenticalAndEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	allEmpty := Assignment{nil, nil, nil, nil}
	for _, tm := range []Tamper{FlipBits(3), TruncateOne()} {
		for i := 0; i < 10; i++ {
			if _, mutated := tm.Apply(allEmpty, rng); mutated {
				t.Fatalf("%s claims to mutate an all-empty assignment", tm.Name)
			}
		}
	}
	identical := Assignment{{1, 0, 1}, {1, 0, 1}}
	for i := 0; i < 10; i++ {
		if _, mutated := SwapCertificates().Apply(identical, rng); mutated {
			t.Fatal("swap of identical certificates claims to mutate")
		}
	}
}

func TestTampersPreserveOriginal(t *testing.T) {
	// Property: no tamper mutates the input assignment.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		honest := Assignment{{1, 0, 1}, {0, 1}, {1}}
		snapshot := honest.Clone()
		for _, tm := range []Tamper{FlipBits(2), SwapCertificates(), TruncateOne(), RandomizeOne()} {
			_, _ = tm.Apply(honest, rng)
		}
		return assignmentsEqual(honest, snapshot)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRandomAssignmentShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandomAssignment(10, 16, rng)
	if len(a) != 10 {
		t.Fatalf("len = %d", len(a))
	}
	for _, c := range a {
		if len(c) > 16 {
			t.Errorf("certificate of %d bits exceeds bound", len(c))
		}
		for _, b := range c {
			if b > 1 {
				t.Error("non-binary bit")
			}
		}
	}
}

// TestAssembleViewSortedByID: a view lists its neighbours by identifier,
// equal to a reference that sorts every neighbour list, both when the
// identifiers ascend with the index (the rows are already in order and
// AssembleView skips the sort) and when they are shuffled.
func TestAssembleViewSortedByID(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 80
	ascending := make([]graph.ID, n)
	for i := range ascending {
		ascending[i] = graph.ID(3*i + 1 + rng.Intn(3))
	}
	shuffled := slices.Clone(ascending)
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, c := range []struct {
		name string
		ids  []graph.ID
		asc  bool
	}{{"ascending", ascending, true}, {"shuffled", shuffled, false}} {
		b, err := graph.NewBuilderWithIDs(c.ids)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.15 {
					b.MustAddEdge(u, v)
				}
			}
		}
		g, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if g.IDsAscending() != c.asc {
			t.Fatalf("%s: IDsAscending = %v", c.name, g.IDsAscending())
		}
		a := make(Assignment, n)
		for v := range a {
			a[v] = Certificate{byte(v & 1), byte(v >> 1 & 1)}
		}
		round := new(int) // any non-nil round: the view must carry it as is
		var buf []NeighborView
		for v := 0; v < n; v++ {
			view := AssembleView(g, a, round, v, buf)
			buf = view.Neighbors
			if view.Round != any(round) || view.Slot != int32(v) {
				t.Fatalf("%s vertex %d: round %v slot %d, want the runner's round and slot %d", c.name, v, view.Round, view.Slot, v)
			}
			var want []NeighborView
			for _, u := range g.Neighbors(v) {
				want = append(want, NeighborView{ID: g.IDOf(int(u)), Cert: a[u], Slot: u})
			}
			sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
			if len(view.Neighbors) != len(want) {
				t.Fatalf("%s vertex %d: %d neighbours, want %d", c.name, v, len(view.Neighbors), len(want))
			}
			for i := range want {
				if got := view.Neighbors[i]; got.ID != want[i].ID || got.Slot != want[i].Slot || !slices.Equal(got.Cert, want[i].Cert) {
					t.Fatalf("%s vertex %d: neighbour %d is %v, want %v", c.name, v, i, got, want[i])
				}
			}
		}
	}
}
