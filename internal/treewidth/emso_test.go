package treewidth

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/graphgen"
	"repro/internal/logic"
)

func TestCompileEMSOFragment(t *testing.T) {
	accepted := []logic.Formula{
		logic.TrueSentence(),
		logic.TwoColorable(),
		logic.ThreeColorable(),
		logic.TriangleFree(),
		logic.MustParse("forall x. forall y. !(x ~ y)"), // edgeless
		logic.MustParse("existsset S. forall x. x in S | !(x in S)"),
	}
	for _, f := range accepted {
		if _, err := CompileEMSO(f); err != nil {
			t.Errorf("CompileEMSO(%s) rejected: %v", f, err)
		}
	}
	rejected := []struct {
		f   logic.Formula
		why string
	}{
		{logic.DiameterAtMost2(), "non-local universal constraint"},
		{logic.HasDominatingVertex(), "existential FO prefix"},
		{logic.HasEdge(), "existential FO prefix"},
		{logic.Connected(), "universal set quantifier"},
		{logic.MustParse("forall x. exists y. x ~ y"), "inner existential"},
		{logic.MustParse("x ~ y"), "free variables"},
	}
	for _, tc := range rejected {
		if _, err := CompileEMSO(tc.f); err == nil {
			t.Errorf("CompileEMSO(%s) accepted but should fail (%s)", tc.f, tc.why)
		}
	}
}

// TestSolveEMSOAgreesWithColorDP cross-checks the generalized DP against
// the original c-colorability DP on random bounded-width instances.
func TestSolveEMSOAgreesWithColorDP(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	two := MustCompileEMSO(logic.TwoColorable())
	three := MustCompileEMSO(logic.ThreeColorable())
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(15)
		g, _ := graphgen.PartialKTree(n, 2, 0.6, rng)
		d, _, err := HeuristicCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		nice, err := MakeNiceCtx(context.Background(), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for c, phi := range map[int]*EMSO{2: two, 3: three} {
			_, wantOK, err := ColorGraph(g, nice, c)
			if err != nil {
				t.Fatal(err)
			}
			words, gotOK, err := SolveEMSOCtx(context.Background(), g, nice, phi)
			if err != nil {
				t.Fatal(err)
			}
			if gotOK != wantOK {
				t.Fatalf("trial %d: %d-colorability: ColorGraph=%v SolveEMSO=%v", trial, c, wantOK, gotOK)
			}
			if !gotOK {
				continue
			}
			// The witness words must decode to a proper colouring.
			for _, e := range g.Edges() {
				if words[e[0]] == words[e[1]] {
					t.Fatalf("trial %d: EMSO witness colours edge (%d,%d) monochromatically", trial, e[0], e[1])
				}
			}
		}
	}
}

// TestSolveEMSOAgainstBruteForce checks arbitrary fragment sentences
// against exhaustive evaluation on small graphs.
func TestSolveEMSOAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sentences := []logic.Formula{
		logic.TriangleFree(),
		logic.TwoColorable(),
		logic.MustParse("forall x. forall y. !(x ~ y)"),
		// Independent set covering every edge endpoint ("vertex cover
		// complement"): exists S with no edge inside S and every edge
		// touching the complement trivially — an EMSO shape with both a
		// set and a pair constraint.
		logic.MustParse("existsset S. forall x. forall y. x ~ y -> !(x in S & y in S)"),
	}
	for trial := 0; trial < 10; trial++ {
		n := 4 + rng.Intn(6)
		g, _ := graphgen.PartialKTree(n, 2, 0.5, rng)
		d, _, err := HeuristicCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		nice, err := MakeNiceCtx(context.Background(), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range sentences {
			phi := MustCompileEMSO(f)
			_, got, err := SolveEMSOCtx(context.Background(), g, nice, phi)
			if err != nil {
				t.Fatal(err)
			}
			want, err := logic.Eval(f, logic.NewModel(g))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d: SolveEMSOCtx(%s) = %v, brute force = %v on %v", trial, f, got, want, g.Edges())
			}
		}
	}
}

// TestTriangleFreeSchemeEndToEnd certifies triangle-freeness — a formula
// outside every enum — on bounded-width graphs, including soundness: on a
// graph with a triangle there is no honest proof, and corrupted proofs of
// honest instances are rejected.
func TestTriangleFreeSchemeEndToEnd(t *testing.T) {
	prop, err := PropertyFromFormula(logic.TriangleFree())
	if err != nil {
		t.Fatal(err)
	}
	s := &MSOScheme{T: 2, Prop: prop}

	// Yes-instance: cycles are triangle-free (n > 3) with treewidth 2.
	g := graphgen.Cycle(16)
	a, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.RunSequential(g, s, a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest triangle-free proof rejected at %v", res.Rejecters)
	}

	// No-instance: a 2-tree is packed with triangles.
	rng := rand.New(rand.NewSource(5))
	tri, _ := graphgen.KTree(10, 2, rng)
	if holds, err := s.Holds(tri); err != nil || holds {
		t.Fatalf("Holds on a 2-tree: %v %v (want false)", holds, err)
	}
	if _, err := s.Prove(tri); err == nil {
		t.Fatal("Prove succeeded on a graph with triangles")
	}

	// Soundness: replaying a triangle-containing graph's decomposition
	// certificates cannot happen (no proof exists), so attack the honest
	// cycle proof with the full adversary family instead.
	tampers := append(cert.StandardTampers(), BagTampers()...)
	for _, tam := range tampers {
		detected, mutated := 0, 0
		for trial := 0; trial < 15; trial++ {
			trng := rand.New(rand.NewSource(int64(trial)))
			bad, changed := tam.Apply(a, trng)
			if !changed {
				continue
			}
			mutated++
			res, err := cert.RunSequential(g, s, bad)
			if err != nil || !res.Accepted {
				detected++
			}
		}
		if detected != mutated {
			t.Errorf("tamper %s: %d/%d corruptions detected", tam.Name, detected, mutated)
		}
	}
}

// TestEMSOWitnessCorruptionRejected flips a single membership-word bit in
// a 2-colorable certificate (with a correctly forged guard, modelling a
// format-aware adversary) and checks the colouring constraint catches it.
func TestEMSOWitnessCorruptionRejected(t *testing.T) {
	prop, _ := PropertyByName("2-colorable")
	s := &MSOScheme{T: 1, Prop: prop}
	g := graphgen.Path(12)
	a, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		p, ok := DecodePayload(a[v], g.IDOf(v), 1)
		if !ok {
			t.Fatalf("honest certificate of %d does not decode", v)
		}
		p.State ^= 1
		bad := a.Clone()
		bad[v] = EncodePayload(p, g.IDOf(v), 1)
		res, err := cert.RunSequential(g, s, bad)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			t.Fatalf("flipped membership word at vertex %d went undetected", v)
		}
	}
}

// TestRowCorruptionRejected forges an adjacency-row bit with a correct
// guard; the row self-check at the owner must reject it.
func TestRowCorruptionRejected(t *testing.T) {
	prop, _ := PropertyByName("tw-bound")
	s := &MSOScheme{T: 2, Prop: prop}
	rng := rand.New(rand.NewSource(9))
	g, _ := graphgen.PartialKTree(20, 2, 0.5, rng)
	a, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for v := 0; v < g.N(); v++ {
		p, ok := DecodePayload(a[v], g.IDOf(v), 0)
		if !ok {
			t.Fatalf("honest certificate of %d does not decode", v)
		}
		if len(p.Row) < 2 {
			continue
		}
		p.Row[0] = !p.Row[0]
		bad := a.Clone()
		bad[v] = EncodePayload(p, g.IDOf(v), 0)
		res, err := cert.RunSequential(g, s, bad)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			t.Fatalf("flipped row bit at vertex %d went undetected", v)
		}
		flipped++
	}
	if flipped == 0 {
		t.Fatal("no certificate had a row to corrupt")
	}
}

// TestTriangleFreeOnStarVerifiesFast pins the tuple-enumeration pruning:
// the star centre has degree n-1, and without the clique pruning its
// Verify would walk (deg+1)^3 tuples — minutes for one vertex. With it,
// the whole round is effectively linear and must finish instantly.
func TestTriangleFreeOnStarVerifiesFast(t *testing.T) {
	prop, err := PropertyFromFormula(logic.TriangleFree())
	if err != nil {
		t.Fatal(err)
	}
	s := &MSOScheme{T: 1, Prop: prop}
	g := graphgen.Star(400)
	a, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := cert.RunSequential(g, s, a)
	if err != nil || !res.Accepted {
		t.Fatalf("star proof rejected: %v %v", res.Rejecters, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("verification took %v — tuple pruning regressed", elapsed)
	}
}
