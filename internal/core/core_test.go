package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
)

func TestUniversalRoundTrip(t *testing.T) {
	s := &Universal{
		PropertyName: "triangle-free",
		Property: func(g *graph.Graph) (bool, error) {
			ok, err := logic.Eval(logic.TriangleFree(), logic.NewModel(g))
			return ok, err
		},
	}
	g := graphgen.Cycle(6)
	a, res, err := cert.ProveAndVerify(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected at %v", res.Rejecters)
	}
	// O(n^2)-ish size.
	if a.MaxBits() < 15 {
		t.Errorf("suspiciously small: %d bits", a.MaxBits())
	}
	if _, err := s.Prove(graphgen.Clique(3)); err == nil {
		t.Fatal("triangle proved triangle-free")
	}
}

func TestUniversalDetectsWrongDescription(t *testing.T) {
	s := &Universal{
		PropertyName: "always",
		Property:     func(g *graph.Graph) (bool, error) { return true, nil },
	}
	// Describe a path to the vertices of a star: some vertex's row is off.
	star := graphgen.Star(5)
	path := graphgen.Path(5)
	a, err := s.Prove(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.RunSequential(star, s, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("star accepted a path description")
	}
}

func TestUniversalSoundness(t *testing.T) {
	s := &Universal{
		PropertyName: "diameter<=2",
		Property: func(g *graph.Graph) (bool, error) {
			d := g.Diameter()
			return d >= 0 && d <= 2, nil
		},
	}
	g := graphgen.Path(6) // diameter 5
	rng := rand.New(rand.NewSource(8))
	honest, err := s.Prove(graphgen.Star(6))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cert.ProbeSoundness(g, s, []cert.Assignment{honest}, honest.MaxBits(), 150, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breaches != 0 {
		t.Fatalf("%d breaches", rep.Breaches)
	}
}

func TestExistentialFORoundTrip(t *testing.T) {
	s, err := NewExistentialFO(logic.IndependentSetOfSize(3))
	if err != nil {
		t.Fatal(err)
	}
	g := graphgen.Star(7) // leaves form an independent set
	a, res, err := cert.ProveAndVerify(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("rejected at %v", res.Rejecters)
	}
	// O(q log n): must be far below the universal scheme's n^2/2.
	if a.MaxBits() > 300 {
		t.Errorf("certificate unexpectedly large: %d bits", a.MaxBits())
	}
	// No-instance: K4 has no independent pair.
	if _, err := s.Prove(graphgen.Clique(4)); err == nil {
		t.Fatal("clique proved to have an independent set of 3")
	}
}

// TestExistentialFODecodeRejectsNonPositiveIDs re-encodes an honest
// certificate with its first witness identifier replaced: the honest
// identifier decodes, while 0 and values above MaxInt64 (which would wrap
// negative as a graph.ID), up to MaxUint64-1, the largest value a uvarint
// carries, are rejected by the decoder itself.
func TestExistentialFODecodeRejectsNonPositiveIDs(t *testing.T) {
	s, err := NewExistentialFO(logic.IndependentSetOfSize(3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Prove(graphgen.Star(7))
	if err != nil {
		t.Fatal(err)
	}
	honest, ok := s.decode(a[0])
	if !ok {
		t.Fatal("honest certificate does not decode")
	}
	for _, id := range []uint64{uint64(honest.wit[0]), 0, math.MaxInt64 + 1, math.MaxUint64 - 1} {
		var w bitio.Writer
		w.WriteUvarint(uint64(len(honest.wit)))
		w.WriteUvarint(id)
		for _, x := range honest.wit[1:] {
			w.WriteUvarint(uint64(x))
		}
		for _, row := range honest.adj {
			for _, b := range row {
				w.WriteBool(b)
			}
		}
		for _, l := range honest.labels {
			l.Encode(&w)
		}
		if _, ok := s.decode(w.Clone()); ok != (id == uint64(honest.wit[0])) {
			t.Errorf("witness id %d: decoded %v", id, ok)
		}
	}
}

func TestExistentialFORejectsUniversalSentences(t *testing.T) {
	if _, err := NewExistentialFO(logic.DiameterAtMost2()); err == nil {
		t.Fatal("universal sentence accepted")
	}
	if _, err := NewExistentialFO(logic.TwoColorable()); err == nil {
		t.Fatal("MSO sentence accepted")
	}
}

func TestExistentialFOSoundness(t *testing.T) {
	s, err := NewExistentialFO(logic.MustParse(
		"exists x. exists y. exists z. x ~ y & y ~ z & x ~ z")) // triangle
	if err != nil {
		t.Fatal(err)
	}
	g := graphgen.Cycle(6) // no triangle
	rng := rand.New(rand.NewSource(21))
	honest, err := s.Prove(graphgen.Clique(4))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cert.ProbeSoundness(g, s, []cert.Assignment{honest}, honest.MaxBits(), 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breaches != 0 {
		t.Fatalf("%d breaches", rep.Breaches)
	}
}

func TestExistentialFOFakeWitnessDetected(t *testing.T) {
	// Claim a triangle on C4 using phantom adjacency bits: the witnesses
	// exist but their matrix rows are lies; the witness vertices catch it.
	s, err := NewExistentialFO(logic.MustParse(
		"exists x. exists y. exists z. x ~ y & y ~ z & x ~ z"))
	if err != nil {
		t.Fatal(err)
	}
	g := graphgen.Cycle(4)
	// Build certificates by proving on K4 with the same IDs 1..4, then
	// replaying on C4: structure trees are broken or rows mismatch.
	honest, err := s.Prove(graphgen.Clique(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.RunSequential(g, s, honest)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("K4 triangle certificate accepted on C4")
	}
}

func TestDepth2FOAgainstDirectEvaluation(t *testing.T) {
	sentences := []logic.Formula{
		logic.IsClique(),
		logic.HasDominatingVertex(),
		logic.HasAtMostOneVertex(),
		logic.MustParse("forall x. exists y. x ~ y"),            // no isolated vertex: true on connected n>=2
		logic.MustParse("exists x. forall y. x = y | x ~ y"),    // dominating vertex again
		logic.MustParse("!(forall x. forall y. x = y | x ~ y)"), // not a clique
	}
	graphs := []*graph.Graph{
		graphgen.Path(1), graphgen.Path(2), graphgen.Path(5),
		graphgen.Clique(4), graphgen.Star(5), graphgen.Cycle(5), graphgen.Cycle(4),
	}
	for _, f := range sentences {
		s, err := NewDepth2FO(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range graphs {
			direct, err := logic.Eval(f, logic.NewModel(g))
			if err != nil {
				t.Fatal(err)
			}
			viaScheme, err := s.Holds(g)
			if err != nil {
				t.Fatal(err)
			}
			if direct != viaScheme {
				t.Errorf("%s on %v: direct %v, classification %v", f, g, direct, viaScheme)
			}
		}
	}
}

func TestDepth2FORoundTrip(t *testing.T) {
	s, err := NewDepth2FO(logic.HasDominatingVertex())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{graphgen.Star(8), graphgen.Clique(5), graphgen.Path(1), graphgen.Path(2)} {
		a, res, err := cert.ProveAndVerify(g, s)
		if err != nil {
			t.Fatalf("%v: %v", g, err)
		}
		if !res.Accepted {
			t.Fatalf("%v rejected at %v", g, res.Rejecters)
		}
		if a.MaxBits() > 200 {
			t.Errorf("%v: %d bits, want O(log n)", g, a.MaxBits())
		}
	}
	if _, err := s.Prove(graphgen.Cycle(6)); err == nil {
		t.Fatal("C6 proved to have a dominating vertex")
	}
}

func TestDepth2FONegatedClique(t *testing.T) {
	s, err := NewDepth2FO(logic.MustParse("!(forall x. forall y. x = y | x ~ y)"))
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := cert.ProveAndVerify(graphgen.Path(5), s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("P5 (non-clique) rejected at %v", res.Rejecters)
	}
	if _, err := s.Prove(graphgen.Clique(4)); err == nil {
		t.Fatal("K4 proved non-clique")
	}
}

func TestDepth2FOSoundness(t *testing.T) {
	s, err := NewDepth2FO(logic.HasDominatingVertex())
	if err != nil {
		t.Fatal(err)
	}
	g := graphgen.Cycle(6)
	rng := rand.New(rand.NewSource(2))
	honest, err := s.Prove(graphgen.Star(6))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cert.ProbeSoundness(g, s, []cert.Assignment{honest}, honest.MaxBits(), 250, rng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breaches != 0 {
		t.Fatalf("%d breaches", rep.Breaches)
	}
}

func TestDepth2FORejectsDeepFormulas(t *testing.T) {
	if _, err := NewDepth2FO(logic.DiameterAtMost2()); err == nil {
		t.Fatal("depth-3 sentence accepted")
	}
}

func TestUniversalVsExistentialSizes(t *testing.T) {
	// The headline scaling contrast: universal O(n^2) vs existential
	// O(q log n) on the same instances.
	f := logic.HasEdge()
	ex, err := NewExistentialFO(f)
	if err != nil {
		t.Fatal(err)
	}
	uni := &Universal{PropertyName: "has-edge", Property: func(g *graph.Graph) (bool, error) {
		return g.M() > 0, nil
	}}
	for _, n := range []int{16, 64} {
		g := graphgen.Path(n)
		ae, err := ex.Prove(g)
		if err != nil {
			t.Fatal(err)
		}
		au, err := uni.Prove(g)
		if err != nil {
			t.Fatal(err)
		}
		if ae.MaxBits() >= au.MaxBits() {
			t.Errorf("n=%d: existential %d bits >= universal %d bits", n, ae.MaxBits(), au.MaxBits())
		}
	}
}
