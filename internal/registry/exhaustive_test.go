package registry

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/rooted"
)

// This file checks the definition of a certification scheme exhaustively
// on small instances, against an oracle independent of the scheme:
//
//   - completeness: the honest prover succeeds exactly on yes-instances,
//     and its proof is accepted by every vertex;
//   - soundness: on a no-instance, no certificate assignment is accepted
//     by every vertex. The attacks are the honest proofs of neighbouring
//     yes-instances, submitted whole, and seeded per-vertex mixtures of
//     them. A certificate lifted from a graph that differs in one edge
//     passes every check that does not see that edge, which makes these
//     the strongest cheap attacks.
//
// The tree schemes (Theorem 2.2) run on every labelled tree; their
// neighbours are edge swaps, which keep a tree.

// exhaustiveTreeN is the largest tree size the harness enumerates. The
// n=6 level is needed: diameter-<=4 has no no-instance below it.
const exhaustiveTreeN = 6

// mixturesPerInstance is the number of seeded per-vertex mixtures of the
// neighbours' proofs submitted on each no-instance.
const mixturesPerInstance = 8

// labelledTrees returns every labelled tree on 1..maxN vertices, one per
// Prüfer code: n^(n-2) trees for each n >= 2.
func labelledTrees(maxN int) []*graph.Graph {
	out := []*graph.Graph{graph.New(1)}
	for n := 2; n <= maxN; n++ {
		code := make([]int, n-2)
		for {
			out = append(out, pruferTree(n, code))
			i := len(code) - 1
			for i >= 0 && code[i] == n-1 {
				code[i] = 0
				i--
			}
			if i < 0 {
				break
			}
			code[i]++
		}
	}
	return out
}

// pruferTree decodes a Prüfer code into the tree on n vertices: each
// code entry in turn is joined to the smallest remaining leaf, and the
// last two leaves are joined to each other.
func pruferTree(n int, code []int) *graph.Graph {
	g := graph.New(n)
	degree := make([]int, n)
	for v := range degree {
		degree[v] = 1
	}
	for _, v := range code {
		degree[v]++
	}
	for _, v := range code {
		leaf := 0
		for degree[leaf] != 1 {
			leaf++
		}
		g.MustAddEdge(leaf, v)
		degree[leaf]--
		degree[v]--
	}
	u := 0
	for degree[u] != 1 {
		u++
	}
	w := u + 1
	for degree[w] != 1 {
		w++
	}
	g.MustAddEdge(u, w)
	return g
}

// treeIsoCode is the canonical code of a tree's isomorphism class: the
// smallest AHU code over its centres.
func treeIsoCode(t *testing.T, g *graph.Graph) string {
	centres, err := rooted.Centers(g)
	if err != nil {
		t.Fatal(err)
	}
	best := ""
	for _, c := range centres {
		rt, err := rooted.FromGraph(g, c)
		if err != nil {
			t.Fatal(err)
		}
		if code := rt.CanonicalCode(); best == "" || code < best {
			best = code
		}
	}
	return best
}

// edgeKey identifies a labelled graph by its edge list.
func edgeKey(g *graph.Graph) string { return fmt.Sprint(g.Edges()) }

// edgeSwaps returns every tree obtained from the tree g by removing one
// edge and joining the two sides it leaves with a different edge.
func edgeSwaps(g *graph.Graph) []*graph.Graph {
	edges := g.Edges()
	var out []*graph.Graph
	for i, e := range edges {
		rest := graph.New(g.N())
		for j, f := range edges {
			if j != i {
				rest.MustAddEdge(f[0], f[1])
			}
		}
		dist := rest.BFSFrom(e[0])
		for a := 0; a < g.N(); a++ {
			for b := 0; b < g.N(); b++ {
				if dist[a] == -1 || dist[b] != -1 || (a == e[0] && b == e[1]) || (a == e[1] && b == e[0]) {
					continue
				}
				h := rest.Clone()
				h.MustAddEdge(a, b)
				out = append(out, h)
			}
		}
	}
	return out
}

// exhaustiveCase is one scheme of the harness with the sentence that
// defines its property.
type exhaustiveCase struct {
	kind     string
	params   Params
	sentence logic.Formula
}

// treeExhaustiveCases lists every tree-mso library property, each judged
// by its defining sentence, and tree-fo sentences whose truth values
// split the trees on at most exhaustiveTreeN vertices.
func treeExhaustiveCases(t *testing.T) []exhaustiveCase {
	var out []exhaustiveCase
	for _, name := range compile.AliasNames("tree-mso") {
		f, ok := compile.AliasFormula("tree-mso", name)
		if !ok {
			t.Fatalf("tree-mso %q has no defining sentence", name)
		}
		out = append(out, exhaustiveCase{"tree-mso", Params{Property: name}, f})
	}
	for _, src := range []string{
		"exists x. forall y. x = y | x ~ y",
		"exists x. exists a. exists b. exists c. x ~ a & x ~ b & x ~ c & !(a = b) & !(a = c) & !(b = c)",
		"forall x. forall y. x = y | x ~ y | (exists z. x ~ z & z ~ y) | exists z. exists w. x ~ z & z ~ w & w ~ y",
	} {
		out = append(out, exhaustiveCase{"tree-fo", Params{Formula: src}, logic.MustParse(src)})
	}
	return out
}

// TestExhaustiveTreeSchemes checks completeness and soundness of every
// Theorem 2.2 scheme on all 1,442 labelled trees with at most 6 vertices.
// The oracle is logic.Eval of the defining sentence, memoized by
// isomorphism class; Holds is not independent of the scheme's own code,
// so it cannot serve.
func TestExhaustiveTreeSchemes(t *testing.T) {
	trees := labelledTrees(exhaustiveTreeN)
	index := make(map[string]int, len(trees))
	isoCodes := make([]string, len(trees))
	for i, g := range trees {
		index[edgeKey(g)] = i
		isoCodes[i] = treeIsoCode(t, g)
	}
	swaps := make([][]int, len(trees))
	for i, g := range trees {
		for _, h := range edgeSwaps(g) {
			j, ok := index[edgeKey(h)]
			if !ok {
				t.Fatalf("edge swap of %v is not an enumerated tree: %v", g.Edges(), h.Edges())
			}
			swaps[i] = append(swaps[i], j)
		}
	}
	for _, tc := range treeExhaustiveCases(t) {
		t.Run(tc.kind+"/"+tc.params.Property+tc.params.Formula, func(t *testing.T) {
			s, err := Default().Build(tc.kind, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			memo := map[string]bool{}
			yes := make([]bool, len(trees))
			proofs := make([]cert.Assignment, len(trees))
			yesCount := 0
			for i, g := range trees {
				want, seen := memo[isoCodes[i]]
				if !seen {
					if want, err = logic.Eval(tc.sentence, logic.NewModel(g)); err != nil {
						t.Fatal(err)
					}
					memo[isoCodes[i]] = want
				}
				yes[i] = want
				a, err := s.Prove(g)
				if (err == nil) != want {
					t.Fatalf("%v: the sentence says %v, Prove returned error %v", g.Edges(), want, err)
				}
				if !want {
					continue
				}
				yesCount++
				res, err := cert.RunSequential(g, s, a)
				if err != nil || !res.Accepted {
					t.Fatalf("%v: honest proof rejected at %v (%v)", g.Edges(), res.Rejecters, err)
				}
				proofs[i] = a
			}
			if yesCount == 0 || yesCount == len(trees) {
				t.Fatalf("the sentence holds on %d of %d trees: no split", yesCount, len(trees))
			}
			attacks := 0
			accepted := func(g *graph.Graph, a cert.Assignment) bool {
				attacks++
				res, err := cert.RunSequential(g, s, a)
				if err != nil {
					t.Fatal(err)
				}
				return res.Accepted
			}
			for i, g := range trees {
				if yes[i] {
					continue
				}
				var donors []int
				for _, j := range swaps[i] {
					if !yes[j] {
						continue
					}
					donors = append(donors, j)
					if accepted(g, proofs[j]) {
						t.Fatalf("no-instance %v accepted the honest proof of %v", g.Edges(), trees[j].Edges())
					}
				}
				if len(donors) < 2 {
					continue
				}
				rng := rand.New(rand.NewSource(int64(i)))
				for k := 0; k < mixturesPerInstance; k++ {
					mix := make(cert.Assignment, g.N())
					for v := range mix {
						mix[v] = proofs[donors[rng.Intn(len(donors))]][v]
					}
					if accepted(g, mix) {
						t.Fatalf("no-instance %v accepted mixture %d of its neighbours' proofs", g.Edges(), k)
					}
				}
			}
			t.Logf("%d trees, %d yes-instances, %d attacks, none accepted", len(trees), yesCount, attacks)
		})
	}
}
