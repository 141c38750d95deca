package treewidth

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
)

// hitTriangles is a three-variable sentence that holds on every graph (S
// = V is a witness) but is not valid: every triangle must meet S.
const hitTriangles = "existsset S. forall x. forall y. forall z. (x ~ y & y ~ z & x ~ z) -> (x in S | y in S | z in S)"

// hubPath returns a hub, vertex 0, joined to every vertex of a path on
// vertices 1..l: treewidth 2, every path edge closing a triangle through
// the hub.
func hubPath(t testing.TB, l int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(l + 1)
	for i := 1; i <= l; i++ {
		b.MustAddEdge(0, i)
		if i > 1 {
			b.MustAddEdge(i-1, i)
		}
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// withWitness re-encodes every certificate of a proof whose property has
// no set variables under m set variables, each vertex drawing a random
// witness word, sealed for its owner.
func withWitness(t *testing.T, g *graph.Graph, a cert.Assignment, m int, rng *rand.Rand) cert.Assignment {
	t.Helper()
	out := make(cert.Assignment, len(a))
	for v, c := range a {
		p, ok := DecodePayload(c, g.IDOf(v), 0)
		if !ok {
			t.Fatalf("certificate of %d does not decode", v)
		}
		p.State = uint64(rng.Intn(1 << m))
		out[v] = EncodePayload(p, g.IDOf(v), m)
	}
	return out
}

// resealedFlip flips one body bit of one certificate and seals it again
// for its owner, so the guard passes and the decoded fields (rows and
// witness words among them) carry the flip into the checks.
func resealedFlip(g *graph.Graph, a cert.Assignment, rng *rand.Rand) cert.Assignment {
	out := a.Clone()
	v := rng.Intn(len(out))
	body, _, ok := unseal(out[v])
	if !ok || len(body) == 0 {
		return out
	}
	body[rng.Intn(len(body))] ^= 1
	var w bitio.Writer
	for _, b := range body {
		w.WriteBit(b)
	}
	seal(&w, g.IDOf(v))
	out[v] = w.Clone()
	return out
}

// TestVerifyMatchesReference is the differential test of the shared
// clique-tuple check: at every vertex, Verify must give verifyReference's
// verdict — the verifier as it stood before, which drew every view point
// after every other — on honest proofs, random witness words, every
// BagTampers variant, the standard tampers and seeded resealed bit flips.
// Views are checked as the runners build them (parsed, sorted by
// identifier), decoded from the certificates, and with their neighbours
// shuffled, as a hand-built view may be. The properties span one to
// three variables and zero to two sets; the graphs are partial k-trees,
// a star and a hub joined to a path.
func TestVerifyMatchesReference(t *testing.T) {
	type graphCase struct {
		name string
		g    *graph.Graph
		t    int
		kt   [][]int // k-tree attachments, when the witness decomposition is known
	}
	var graphs []graphCase
	for seed := int64(1); seed <= 3; seed++ {
		k := 2 + int(seed/3)
		g, attach := graphgen.PartialKTree(50+5*int(seed), k, 0.8, rand.New(rand.NewSource(seed)))
		graphs = append(graphs, graphCase{fmt.Sprintf("partial-%d-tree/%d", k, seed), g, k, attach})
	}
	graphs = append(graphs,
		graphCase{name: "star", g: graphgen.Star(60), t: 1},
		graphCase{name: "hub-path", g: hubPath(t, 45), t: 2},
	)
	var props []Property
	for _, name := range []string{"tw-bound", "2-colorable", "3-colorable"} {
		p, _ := PropertyByName(name)
		props = append(props, p)
	}
	for _, src := range []string{logic.TriangleFree().String(), hitTriangles} {
		p, err := PropertyFromFormula(logic.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		props = append(props, p)
	}
	tampers := append(cert.StandardTampers(), BagTampers()...)
	accepted, rejected := 0, 0
	for _, gc := range graphs {
		var decomps DecompSource
		if gc.kt != nil {
			d, err := FromKTree(gc.g.N(), gc.t, gc.kt)
			if err != nil {
				t.Fatal(err)
			}
			decomps = DecompFunc(func(*graph.Graph) (*Decomposition, error) { return d, nil })
		}
		base, err := (&MSOScheme{T: gc.t, Decomps: decomps}).Prove(gc.g)
		if err != nil {
			t.Fatalf("%s: tw-bound proof: %v", gc.name, err)
		}
		for pi, prop := range props {
			s := &MSOScheme{T: gc.t, Prop: prop, Decomps: decomps}
			rng := rand.New(rand.NewSource(int64(100*pi + len(gc.name))))
			var seeds []cert.Assignment
			if a, err := s.Prove(gc.g); err == nil {
				seeds = append(seeds, a)
			}
			seeds = append(seeds, withWitness(t, gc.g, base, prop.Phi.NumSets(), rng))
			rounds := append([]cert.Assignment(nil), seeds...)
			for _, a := range seeds {
				for _, tm := range tampers {
					for trial := 0; trial < 2; trial++ {
						if bad, mutated := tm.Apply(a, rng); mutated {
							rounds = append(rounds, bad)
						}
					}
				}
				for trial := 0; trial < 6; trial++ {
					rounds = append(rounds, resealedFlip(gc.g, a, rng))
				}
			}
			for ri, a := range rounds {
				n := gc.g.N()
				table := make([]any, n)
				s.ParseRange(gc.g, a, 0, n, table)
				for v := 0; v < n; v++ {
					want := verifyReference(s, cert.ViewOf(gc.g, a, v))
					parsed := cert.AssembleView(gc.g, a, table, v, nil)
					shuffled := cert.ViewOf(gc.g, a, v)
					rng.Shuffle(len(shuffled.Neighbors), func(i, j int) {
						shuffled.Neighbors[i], shuffled.Neighbors[j] = shuffled.Neighbors[j], shuffled.Neighbors[i]
					})
					for vi, view := range []cert.View{parsed, cert.ViewOf(gc.g, a, v), shuffled} {
						if got := s.Verify(view); got != want {
							t.Fatalf("%s %s round %d vertex %d view %d: Verify %v, reference %v",
								gc.name, prop.Name, ri, v, vi, got, want)
						}
					}
					if want {
						accepted++
					} else {
						rejected++
					}
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("%d accepting and %d rejecting verdicts: the comparison is one-sided", accepted, rejected)
	}
}

// TestEMSOValidFlag: CompileEMSO marks exactly the valid sentences of a
// fixed list, those whose matrix no tuple of any graph falsifies.
func TestEMSOValidFlag(t *testing.T) {
	for _, c := range []struct {
		src   string
		valid bool
	}{
		{"forall x. x = x", true},
		{"forall x. !(x ~ x)", true},
		{"forall x. forall y. x ~ y -> y ~ x", true},
		{"existsset S. forall x. x in S | !(x in S)", true},
		{"existsset S. forall x. forall y. x = y -> (x in S -> y in S)", true},
		{"forall x. forall y. forall z. (x ~ y & y ~ z) -> x ~ y", true},
		{"forall x. x ~ x", false},
		{"forall x. forall y. !(x ~ y)", false},
		{"existsset S. forall x. x in S", false},
		{logic.TwoColorable().String(), false},
		{logic.ThreeColorable().String(), false},
		{logic.TriangleFree().String(), false},
		{hitTriangles, false},
	} {
		phi, err := CompileEMSO(logic.MustParse(c.src))
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if phi.valid != c.valid {
			t.Errorf("%s: valid = %v, want %v", c.src, phi.valid, c.valid)
		}
	}
	if tw, _ := PropertyByName("tw-bound"); !tw.Phi.valid {
		t.Error("tw-bound's sentence is not marked valid")
	}
}

// TestVerifyCyclicEvidence plants a triangle among a vertex's neighbours
// that only rows read in both directions expose. On K4 = {v, a, b, c},
// the neighbours' forged rows claim a~b, b~c and c~a, one direction
// each, and the witness puts v alone in S: every triangle through v meets
// S, and only the triangle {a, b, c} breaks the sentence. The forgers
// reject at their own row checks; v must reject too, as the reference
// does, although no path a→b→c of claimed adjacencies is closed by a
// claim of its first point.
func TestVerifyCyclicEvidence(t *testing.T) {
	prop, err := PropertyFromFormula(logic.MustParse(hitTriangles))
	if err != nil {
		t.Fatal(err)
	}
	s := &MSOScheme{T: 3, Prop: prop}
	b := graph.NewBuilder(4)
	for u := 0; u < 4; u++ {
		for w := u + 1; w < 4; w++ {
			b.MustAddEdge(u, w)
		}
	}
	g, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Prove(g)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 is v; vertex i (1..3) claims adjacency to vertex i%3+1
	// alone among the other neighbours.
	for u := 0; u < 4; u++ {
		p, ok := DecodePayload(a[u], g.IDOf(u), 1)
		if !ok {
			t.Fatalf("certificate of %d does not decode", u)
		}
		p.State = 0
		if u == 0 {
			p.State = 1
		} else {
			for i, id := range p.Bag {
				p.Row[i] = id == g.IDOf(0) || id == g.IDOf(u%3+1)
			}
		}
		a[u] = EncodePayload(p, g.IDOf(u), 1)
	}
	for u := 0; u < 4; u++ {
		view := cert.ViewOf(g, a, u)
		if got, want := s.Verify(view), verifyReference(s, view); got != want || got {
			t.Fatalf("vertex %d: Verify %v, reference %v (both must reject)", u, got, want)
		}
	}
}

// TestWitnessCheckMatchesReference holds the DP side of the shared
// clique-tuple check to the original enumerator: at every introduce node
// of nice decompositions of partial k-trees and a hub joined to a path,
// under random witness words, centredWalk.witnessOK must give the verdict of
// allTuplesOKReference over the node's bag restricted to tuples through
// the introduced vertex.
func TestWitnessCheckMatchesReference(t *testing.T) {
	var phis []*EMSO
	for _, f := range []logic.Formula{
		logic.TrueSentence(), logic.TwoColorable(), logic.ThreeColorable(),
		logic.TriangleFree(), logic.MustParse(hitTriangles),
	} {
		phis = append(phis, MustCompileEMSO(f))
	}
	graphs := []*graph.Graph{hubPath(t, 30)}
	for seed := int64(1); seed <= 4; seed++ {
		g, _ := graphgen.PartialKTree(40, 1+int(seed%3), 0.7, rand.New(rand.NewSource(seed)))
		graphs = append(graphs, g)
	}
	rng := rand.New(rand.NewSource(7))
	checked, failed := 0, 0
	for gi, g := range graphs {
		d, _, err := HeuristicCtx(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		nice, err := MakeNiceCtx(context.Background(), d, 0)
		if err != nil {
			t.Fatal(err)
		}
		adj := func(a, b int) bool { return g.HasEdge(a, b) }
		for _, phi := range phis {
			var wc centredWalk
			for trial := 0; trial < 4; trial++ {
				words := make([]uint8, g.N())
				for v := range words {
					words[v] = uint8(rng.Intn(1 << phi.NumSets()))
				}
				member := func(set, point int) bool { return words[point]>>uint(set)&1 == 1 }
				for i := range nice.Nodes {
					nd := &nice.Nodes[i]
					if nd.Kind != KindIntroduce {
						continue
					}
					want := allTuplesOKReference(phi, nd.Bag, adj, member, nd.Vertex)
					if got := wc.witnessOK(g, phi, nd.Bag, nd.Vertex, words); got != want {
						t.Fatalf("graph %d %s node %d (bag %v, vertex %d): check %v, reference %v",
							gi, phi, i, nd.Bag, nd.Vertex, got, want)
					}
					checked++
					if !want {
						failed++
					}
				}
			}
		}
	}
	if failed == 0 || failed == checked {
		t.Fatalf("%d of %d checks failed: the comparison is one-sided", failed, checked)
	}
}
