package kernel

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
	"repro/internal/netsim"
	"repro/internal/rooted"
	"repro/internal/treedepth"
)

func TestMSOSchemeRoundTripFO(t *testing.T) {
	// "No isolated vertex" holds on every connected graph with >= 2
	// vertices; exercises the full pipeline on bounded-treedepth graphs.
	f := logic.MustParse("forall x. exists y. x ~ y")
	s, err := NewMSOScheme(4, f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 6; trial++ {
		g, parents := graphgen.BoundedTreedepth(10+rng.Intn(20), 4, 0.4, rng)
		s.ModelProvider = func(gg *graph.Graph) (*rooted.Tree, error) {
			return treedepth.FromParentSlice(gg, parents)
		}
		a, res, err := cert.ProveAndVerify(g, s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Accepted {
			t.Fatalf("trial %d: rejected at %v", trial, res.Rejecters)
		}
		if a.MaxBits() == 0 {
			t.Error("empty certificates")
		}
	}
}

func TestMSOSchemeRoundTripMSO(t *testing.T) {
	// 2-colourability is a genuine MSO sentence; on the generator's
	// graphs it may or may not hold — certify when it does, refuse when
	// it does not.
	f := logic.TwoColorable()
	rng := rand.New(rand.NewSource(17))
	certified, refused := 0, 0
	for trial := 0; trial < 12; trial++ {
		g, parents := graphgen.BoundedTreedepth(8+rng.Intn(8), 3, 0.5, rng)
		s, err := NewMSOScheme(3, f)
		if err != nil {
			t.Fatal(err)
		}
		s.ModelProvider = func(gg *graph.Graph) (*rooted.Tree, error) {
			return treedepth.FromParentSlice(gg, parents)
		}
		holds, err := s.Holds(g)
		if err != nil {
			t.Fatal(err)
		}
		if holds {
			certified++
			_, res, err := cert.ProveAndVerify(g, s)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if !res.Accepted {
				t.Fatalf("trial %d: rejected at %v", trial, res.Rejecters)
			}
		} else {
			refused++
			if _, err := s.Prove(g); err == nil {
				t.Fatalf("trial %d: proved a non-2-colourable graph", trial)
			}
		}
	}
	if certified == 0 || refused == 0 {
		t.Skipf("unbalanced sample: %d certified, %d refused", certified, refused)
	}
}

func TestMSOSchemeHoldsMatchesDirectEvaluation(t *testing.T) {
	// On small graphs, Holds (kernel evaluation) must agree with direct
	// evaluation on G — this is Theorem 3.2 + Proposition 6.3 at work.
	sentences := []logic.Formula{
		logic.HasDominatingVertex(),
		logic.TwoColorable(),
		logic.MustParse("exists x. exists y. exists z. x ~ y & y ~ z & x ~ z"), // has triangle
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		g, _ := graphgen.BoundedTreedepth(8+rng.Intn(6), 3, 0.6, rng)
		for _, f := range sentences {
			s, err := NewMSOScheme(3, f)
			if err != nil {
				t.Fatal(err)
			}
			viaKernel, err := s.Holds(g)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := logic.Eval(f, logic.NewModel(g))
			if err != nil {
				t.Fatal(err)
			}
			if viaKernel != direct {
				t.Errorf("trial %d: %s: kernel says %v, direct says %v", trial, f, viaKernel, direct)
			}
		}
	}
}

func TestMSOSchemeSoundnessWrongFormula(t *testing.T) {
	// Certificates proving "has a dominating vertex" on a star must not
	// convince the verifier for the same scheme on a path (no-instance),
	// nor random certificates.
	f := logic.HasDominatingVertex()
	s, err := NewMSOScheme(3, f)
	if err != nil {
		t.Fatal(err)
	}
	star := graphgen.Star(7)
	honest, err := s.Prove(star)
	if err != nil {
		t.Fatal(err)
	}
	path := graphgen.Path(7) // td(P7)=3, no dominating vertex
	rng := rand.New(rand.NewSource(41))
	rep, err := cert.ProbeSoundness(path, s, []cert.Assignment{honest}, honest.MaxBits(), 250, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breaches != 0 {
		t.Fatalf("%d soundness breaches", rep.Breaches)
	}
}

func TestMSOSchemeTamperDetection(t *testing.T) {
	f := logic.MustParse("forall x. exists y. x ~ y")
	s, err := NewMSOScheme(3, f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	g, parents := graphgen.BoundedTreedepth(15, 3, 0.5, rng)
	s.ModelProvider = func(gg *graph.Graph) (*rooted.Tree, error) {
		return treedepth.FromParentSlice(gg, parents)
	}
	honest, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := netsim.Default.Sweep(context.Background(), g, s, honest, cert.StandardTampers(), 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	detected, changed := 0, 0
	for _, st := range rep.Stats {
		detected, changed = detected+st.Detected, changed+st.Mutated
	}
	if changed == 0 || detected < changed*8/10 {
		t.Errorf("tamper detection weak: %d/%d", detected, changed)
	}
}

func TestMSOSchemeRefusesBadInput(t *testing.T) {
	f := logic.HasEdge()
	s, err := NewMSOScheme(2, f)
	if err != nil {
		t.Fatal(err)
	}
	disc := graph.New(3)
	disc.MustAddEdge(0, 1)
	if _, err := s.Prove(disc); err == nil {
		t.Error("disconnected graph proved")
	}
	// Treedepth bound exceeded: clique K4 has td 4 > 2.
	if _, err := s.Prove(graphgen.Clique(4)); err == nil {
		t.Error("treedepth bound ignored")
	}
	if _, err := NewMSOScheme(2, logic.MustParse("x ~ y")); err == nil {
		t.Error("open formula accepted")
	}
}

func TestMSOSchemeCertificateGrowsLogarithmically(t *testing.T) {
	// For fixed (t, phi), certificates are O(t log n + f): doubling n
	// must add only O(t) bits.
	f := logic.HasEdge()
	rng := rand.New(rand.NewSource(2))
	sizes := map[int]int{}
	for _, n := range []int{16, 256} {
		g, parents := graphgen.BoundedTreedepth(n, 3, 0.3, rng)
		s, err := NewMSOScheme(3, f)
		if err != nil {
			t.Fatal(err)
		}
		s.ModelProvider = func(gg *graph.Graph) (*rooted.Tree, error) {
			return treedepth.FromParentSlice(gg, parents)
		}
		a, err := s.Prove(g)
		if err != nil {
			t.Fatal(err)
		}
		sizes[n] = a.MaxBits()
	}
	// 16x more vertices: at most ~4 more ID bits in each of ~3 list slots
	// and 3 tree labels — generously, +200 bits covers it; linear growth
	// would add thousands.
	if sizes[256] > sizes[16]+200 {
		t.Errorf("certificate growth looks super-logarithmic: %v", sizes)
	}
}
