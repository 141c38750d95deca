package automata

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
)

func TestTypeCompilerRejectsMSOAndOpenFormulas(t *testing.T) {
	if _, err := NewTypeCompiler(logic.TwoColorable()); err == nil {
		t.Error("MSO sentence accepted")
	}
	if _, err := NewTypeCompiler(logic.MustParse("x ~ y")); err == nil {
		t.Error("open formula accepted")
	}
}

// TestTypeCompilerMatchesBruteForce is the central validation of the
// compiler: on many random trees, the discovered automaton must agree
// with direct FO model checking, for several sentences of different
// ranks, from every root.
func TestTypeCompilerMatchesBruteForce(t *testing.T) {
	sentences := []logic.Formula{
		logic.HasEdge(),                              // rank 2
		logic.HasDominatingVertex(),                  // rank 2
		logic.MustParse("forall x. exists y. x ~ y"), // rank 2: no isolated vertex
		logic.DiameterAtMost2(),                      // rank 3
		logic.MustParse("exists x. exists y. exists z. x ~ y & x ~ z & !(y = z)"), // rank 3: vertex of degree >= 2
	}
	rng := rand.New(rand.NewSource(21))
	trees := []*graph.Graph{
		graphgen.Path(1), graphgen.Path(2), graphgen.Path(3), graphgen.Path(5),
		graphgen.Star(4), graphgen.Star(7), graphgen.Spider(3, 2),
		graphgen.Caterpillar(3, 2),
	}
	for i := 0; i < 12; i++ {
		trees = append(trees, graphgen.RandomTree(2+rng.Intn(10), rng))
	}
	for _, f := range sentences {
		tc, err := NewTypeCompiler(f)
		if err != nil {
			t.Fatal(err)
		}
		for ti, g := range trees {
			want, err := logic.Eval(f, logic.NewModel(g))
			if err != nil {
				t.Fatal(err)
			}
			for root := 0; root < g.N(); root++ {
				tr, err := rooted.FromGraph(g, root)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tc.Accepts(tr)
				if err != nil {
					t.Fatalf("%s tree %d root %d: %v", f, ti, root, err)
				}
				if got != want {
					t.Errorf("%s on tree %d (%v) root %d: compiler %v, brute force %v",
						f, ti, g, root, got, want)
				}
			}
		}
	}
}

// TestTypeCompilerStateCountPlateaus is experiment E1b in miniature: on
// growing paths, the number of discovered classes must stop growing —
// witnessing the finite-state collapse that makes O(1) certificates
// possible.
func TestTypeCompilerStateCountPlateaus(t *testing.T) {
	tc, err := NewTypeCompiler(logic.HasDominatingVertex())
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for n := 1; n <= 40; n++ {
		tr, err := rooted.FromGraph(graphgen.Path(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tc.AssignStates(tr); err != nil {
			t.Fatal(err)
		}
		counts = append(counts, tc.NumClasses())
	}
	last := counts[len(counts)-1]
	mid := counts[len(counts)/2]
	if last != mid {
		t.Errorf("state count still growing: %d at n=20, %d at n=40 (%v)", mid, last, counts)
	}
	if last > 32 {
		t.Errorf("suspiciously many classes on paths: %d", last)
	}
}

func TestTypeSchemeRoundTrip(t *testing.T) {
	f := logic.MustParse("forall x. exists y. x ~ y") // no isolated vertex: true on every tree with n >= 2
	s, err := NewTypeScheme(f)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		g := graphgen.RandomTree(2+rng.Intn(25), rng)
		a, res, err := cert.ProveAndVerify(g, s)
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if !res.Accepted {
			t.Fatalf("tree %d rejected at %v", i, res.Rejecters)
		}
		if a.MaxBits() != s.CertificateBits() {
			t.Errorf("certificate %d bits, want %d", a.MaxBits(), s.CertificateBits())
		}
	}
}

func TestTypeSchemeProveRefusesNoInstance(t *testing.T) {
	// A star has a dominating vertex; a long path does not.
	s, err := NewTypeScheme(logic.HasDominatingVertex())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prove(graphgen.Path(6)); err == nil {
		t.Error("no-instance proved")
	}
	if _, err := s.Prove(graphgen.Star(6)); err != nil {
		t.Errorf("yes-instance refused: %v", err)
	}
}

func TestTypeSchemeSoundness(t *testing.T) {
	s, err := NewTypeScheme(logic.HasDominatingVertex())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the registry with both yes- and no-instances so the adversary
	// has meaningful states to play with.
	honestYes, err := s.Prove(graphgen.Star(8))
	if err != nil {
		t.Fatal(err)
	}
	_ = honestYes
	g := graphgen.Path(8) // no dominating vertex
	rng := rand.New(rand.NewSource(77))
	rep, err := cert.ProbeSoundness(g, s, nil, s.CertificateBits(), 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breaches != 0 {
		t.Fatalf("%d soundness breaches", rep.Breaches)
	}
}

func TestTypeSchemeTamperDetection(t *testing.T) {
	s, err := NewTypeScheme(logic.MustParse("forall x. exists y. x ~ y"))
	if err != nil {
		t.Fatal(err)
	}
	g := graphgen.Star(6)
	honest, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := netsim.Default.Sweep(context.Background(), g, s, honest, cert.StandardTampers(), 25, 3)
	if err != nil {
		t.Fatal(err)
	}
	detected, changed := 0, 0
	for _, st := range rep.Stats {
		detected, changed = detected+st.Detected, changed+st.Mutated
	}
	if changed == 0 || detected < changed*9/10 {
		t.Errorf("tamper detection weak: %d/%d", detected, changed)
	}
}

func TestTypeSchemeRejectsNonTree(t *testing.T) {
	s, err := NewTypeScheme(logic.HasEdge())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Prove(graphgen.Cycle(4)); err == nil {
		t.Error("cycle proved under tree promise")
	}
}

func BenchmarkTypeCompilerPath(b *testing.B) {
	f := logic.HasDominatingVertex()
	for i := 0; i < b.N; i++ {
		tc, err := NewTypeCompiler(f)
		if err != nil {
			b.Fatal(err)
		}
		tr, err := rooted.FromGraph(graphgen.Path(30), 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tc.AssignStates(tr); err != nil {
			b.Fatal(err)
		}
	}
}
