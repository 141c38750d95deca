package compile

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
)

// TestTreeAliasesHitHandBuiltAutomata checks the tentpole's compatibility
// contract for trees: compiling an enum's defining sentence (in any
// alpha-equivalent spelling) yields the very same hand-built automaton
// scheme the enum name builds — identical name, identical certificates.
func TestTreeAliasesHitHandBuiltAutomata(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path-8", graphgen.Path(8)},
		{"star-7", graphgen.Star(7)},
		{"random-9", graphgen.RandomTree(9, rng)},
	}
	for _, b := range treeBuilders {
		enumScheme, err := b.build()
		if err != nil {
			t.Fatalf("%s: enum build: %v", b.alias.Name, err)
		}
		formulaScheme, err := Tree(b.alias.Formula)
		if err != nil {
			t.Fatalf("%s: formula build: %v", b.alias.Name, err)
		}
		if enumScheme.Name() != formulaScheme.Name() {
			t.Fatalf("%s: scheme names diverge: %q vs %q", b.alias.Name, enumScheme.Name(), formulaScheme.Name())
		}
		// An alpha-variant spelling must hit the same automaton.
		variant, err := Tree(logic.Canonicalize(b.alias.Formula))
		if err != nil || variant.Name() != enumScheme.Name() {
			t.Fatalf("%s: canonical respelling missed the library: %v", b.alias.Name, err)
		}
		for _, gt := range graphs {
			eh, err1 := enumScheme.Holds(gt.g)
			fh, err2 := formulaScheme.Holds(gt.g)
			if (err1 == nil) != (err2 == nil) || eh != fh {
				t.Fatalf("%s on %s: Holds diverges: (%v,%v) vs (%v,%v)", b.alias.Name, gt.name, eh, err1, fh, err2)
			}
			if !eh {
				continue
			}
			ea, err := enumScheme.Prove(gt.g)
			if err != nil {
				t.Fatalf("%s on %s: enum prove: %v", b.alias.Name, gt.name, err)
			}
			fa, err := formulaScheme.Prove(gt.g)
			if err != nil {
				t.Fatalf("%s on %s: formula prove: %v", b.alias.Name, gt.name, err)
			}
			for v := range ea {
				if string(ea[v]) != string(fa[v]) {
					t.Fatalf("%s on %s: certificates diverge at vertex %d", b.alias.Name, gt.name, v)
				}
			}
		}
	}
}

// TestTreeAliasSemantics cross-checks every alias sentence against the
// automaton it aliases, by brute-force evaluation on random trees: the
// table is only sound if formula and automaton recognize the same
// language.
func TestTreeAliasSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, b := range treeBuilders {
		scheme, err := b.build()
		if err != nil {
			t.Fatal(err)
		}
		fo := logic.IsFO(b.alias.Formula)
		for trial := 0; trial < 12; trial++ {
			n := 1 + rng.Intn(10)
			if !fo {
				n = 1 + rng.Intn(8) // MSO evaluation is 2^n
			}
			g := graphgen.RandomTree(n, rng)
			want, err := scheme.Holds(g)
			if err != nil {
				t.Fatalf("%s: Holds: %v", b.alias.Name, err)
			}
			got, err := logic.Eval(b.alias.Formula, logic.NewModel(g))
			if err != nil {
				t.Fatalf("%s: Eval: %v", b.alias.Name, err)
			}
			if got != want {
				t.Fatalf("%s: alias sentence disagrees with automaton on n=%d (%v): formula=%v automaton=%v",
					b.alias.Name, n, g.Edges(), got, want)
			}
		}
	}
}

// TestUniversalAliasSemantics cross-checks the universal alias sentences
// against their native predicates on small graphs.
func TestUniversalAliasSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, a := range universalAliases {
		for trial := 0; trial < 10; trial++ {
			n := 2 + rng.Intn(7)
			var g *graph.Graph
			switch trial % 3 {
			case 0:
				g = graphgen.RandomTree(n, rng)
			case 1:
				g = graphgen.Cycle(n + 1)
			default:
				g = graphgen.Clique(n)
			}
			var want bool
			switch a.Name {
			case "connected":
				want = g.Connected()
			case "diameter-<=2":
				d := g.Diameter()
				want = d >= 0 && d <= 2
			case "is-tree":
				want = g.IsTree()
			default:
				t.Fatalf("unknown universal alias %q", a.Name)
			}
			got, err := logic.Eval(a.Formula, logic.NewModel(g))
			if err != nil {
				t.Fatalf("%s: Eval: %v", a.Name, err)
			}
			if got != want {
				t.Fatalf("%s: alias sentence disagrees with native predicate on n=%d: formula=%v native=%v",
					a.Name, g.N(), got, want)
			}
		}
	}
}

// TestTreeFOFallback compiles a non-library FO sentence through type
// discovery and runs it end to end.
func TestTreeFOFallback(t *testing.T) {
	s, err := Tree(logic.MustParse("forall x. exists y. x ~ y"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s.Name(), "tree-fo-types(") {
		t.Fatalf("expected a type-discovery scheme, got %s", s.Name())
	}
	g := graphgen.Path(10)
	a, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.RunSequential(g, s, a)
	if err != nil || !res.Accepted {
		t.Fatalf("FO fallback proof rejected: %v %v", res.Rejecters, err)
	}
}

// TestTreeRejectsUnknownMSO demands a clear error for MSO sentences the
// tree backend cannot lower.
func TestTreeRejectsUnknownMSO(t *testing.T) {
	if _, err := Tree(logic.Connected()); err == nil {
		t.Fatal("Tree accepted an MSO sentence outside the library")
	}
	if _, err := Tree(logic.MustParse("x ~ y")); err == nil {
		t.Fatal("Tree accepted a non-sentence")
	}
}

// TestUniversalFormulaScheme certifies HasDominatingVertex — a sentence in
// no enum — through the universal backend.
func TestUniversalFormulaScheme(t *testing.T) {
	s, err := Universal(logic.HasDominatingVertex())
	if err != nil {
		t.Fatal(err)
	}
	star := graphgen.Star(9)
	a, err := s.Prove(star)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cert.RunSequential(star, s, a)
	if err != nil || !res.Accepted {
		t.Fatalf("honest proof rejected: %v %v", res.Rejecters, err)
	}
	path := graphgen.Path(6)
	if holds, err := s.Holds(path); err != nil || holds {
		t.Fatalf("HasDominatingVertex claimed to hold on P6: %v %v", holds, err)
	}
	if _, err := s.Prove(path); err == nil {
		t.Fatal("Prove succeeded on a no-instance")
	}
}

// TestTreewidthAliasKeepsShortName checks that library sentences keep
// their enum display name through the formula path.
func TestTreewidthAliasKeepsShortName(t *testing.T) {
	p, err := Treewidth(logic.TwoColorable())
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "2-colorable" {
		t.Fatalf("library sentence lost its alias name: %q", p.Name)
	}
	q, err := Treewidth(logic.TriangleFree())
	if err != nil {
		t.Fatal(err)
	}
	if q.Name == "2-colorable" || q.Phi == nil {
		t.Fatalf("non-library sentence compiled wrongly: %+v", q)
	}
}

// TestPropertyCacheKeyUnifiesEnumAndFormula checks the key bridge the
// engine uses.
func TestPropertyCacheKeyUnifiesEnumAndFormula(t *testing.T) {
	key, ok := PropertyCacheKey("tree-mso", "max-degree-<=2")
	if !ok {
		t.Fatal("no cache key for tree-mso enum")
	}
	if want := logic.CanonicalString(logic.MaxDegreeAtMost(2)); key != want {
		t.Fatalf("cache key mismatch: %q vs %q", key, want)
	}
	if _, ok := PropertyCacheKey("universal", "connected"); ok {
		t.Fatal("universal enum must not share keys with the formula path (different deciders)")
	}
	if _, ok := PropertyCacheKey("tree-mso", "no-such"); ok {
		t.Fatal("unknown enum produced a key")
	}
}

// TestPropertyCacheKeyPerAlias: the key of every tree-mso and tw-mso
// enum value, computed once at package initialisation, is the canonical
// form of its alias sentence.
func TestPropertyCacheKeyPerAlias(t *testing.T) {
	for _, kind := range []string{"tree-mso", "tw-mso"} {
		names := AliasNames(kind)
		if len(names) == 0 {
			t.Fatalf("%s: no aliases", kind)
		}
		for _, name := range names {
			f, _ := AliasFormula(kind, name)
			key, ok := PropertyCacheKey(kind, name)
			if want := logic.CanonicalString(f); !ok || key != want {
				t.Errorf("%s %s: key %q (ok=%v), want %q", kind, name, key, ok, want)
			}
		}
	}
}

// TestPropertyCacheKeyAllocationFree: the engine looks a key up on every
// enum compile-cache request, so a lookup must allocate nothing.
func TestPropertyCacheKeyAllocationFree(t *testing.T) {
	for _, c := range [][2]string{{"tw-mso", "3-colorable"}, {"tree-mso", "perfect-matching"}, {"universal", "connected"}} {
		if allocs := testing.AllocsPerRun(100, func() { PropertyCacheKey(c[0], c[1]) }); allocs != 0 {
			t.Errorf("%s %s: %v allocations per lookup, want 0", c[0], c[1], allocs)
		}
	}
}

// TestUniversalFormulaRefusesExplosiveEvaluation pins the model-checking
// cost cap: a tiny hostile sentence with a deep set-quantifier prefix
// must error out immediately instead of evaluating 2^(s*n) subsets.
func TestUniversalFormulaRefusesExplosiveEvaluation(t *testing.T) {
	s, err := Universal(logic.MustParse(
		"forallset A. forallset B. forallset C. forallset D. exists x. x in A | !(x in A)"))
	if err != nil {
		t.Fatal(err)
	}
	g := graphgen.Path(22)
	start := time.Now()
	if _, err := s.Holds(g); err == nil {
		t.Fatal("explosive sentence evaluated without error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cost cap did not trip early: %v", elapsed)
	}
}
