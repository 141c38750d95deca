// Package automorphism implements the fixed-point-free automorphism
// property of Theorem 2.3 — the paper's canonical example of a non-MSO
// property that requires Θ̃(n)-bit certificates even on bounded-depth
// trees.
//
// For trees the structure theory is classical: every automorphism fixes
// the center. If the center is a single vertex no automorphism is
// fixed-point-free; if it is an edge {a, b}, a fixed-point-free
// automorphism exists iff the two rooted halves are isomorphic (then
// swapping them moves every vertex).
package automorphism

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rooted"
)

// TreeHasFixedPointFreeAutomorphism decides whether a tree admits an
// automorphism without fixed points.
func TreeHasFixedPointFreeAutomorphism(g *graph.Graph) (bool, error) {
	if !g.IsTree() {
		return false, fmt.Errorf("automorphism: input is not a tree")
	}
	centers, err := rooted.Centers(g)
	if err != nil {
		return false, err
	}
	if len(centers) == 1 {
		// The center vertex is fixed by every automorphism.
		return false, nil
	}
	a, b := centers[0], centers[1]
	// Split at the center edge: the component of a in G - {b} versus the
	// component of b in G - {a}.
	halfA := componentWithout(g, a, b)
	halfB := componentWithout(g, b, a)
	ta, err := rootedHalf(g, halfA, a)
	if err != nil {
		return false, err
	}
	tb, err := rootedHalf(g, halfB, b)
	if err != nil {
		return false, err
	}
	return rooted.Isomorphic(ta, tb), nil
}

// componentWithout returns the vertices reachable from src without
// passing through blocked.
func componentWithout(g *graph.Graph, src, blocked int) []int {
	seen := map[int]bool{src: true, blocked: true}
	var out []int
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		for _, x := range g.Neighbors(u) {
			if w := int(x); !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return out
}

func rootedHalf(g *graph.Graph, members []int, root int) (*rooted.Tree, error) {
	sub, oldIdx := g.InducedSubgraph(members)
	newRoot := -1
	for newIdx, old := range oldIdx {
		if old == root {
			newRoot = newIdx
		}
	}
	if newRoot == -1 {
		return nil, fmt.Errorf("automorphism: root missing from its half")
	}
	return rooted.FromGraph(sub, newRoot)
}

// FindFixedPointFreeAutomorphism returns an explicit fixed-point-free
// automorphism as a permutation of vertex indices, or nil if none exists.
// It realizes the center-edge swap via canonical-code-guided matching of
// subtrees.
func FindFixedPointFreeAutomorphism(g *graph.Graph) ([]int, error) {
	has, err := TreeHasFixedPointFreeAutomorphism(g)
	if err != nil {
		return nil, err
	}
	if !has {
		return nil, nil
	}
	centers, _ := rooted.Centers(g)
	a, b := centers[0], centers[1]
	ta, err := rootedHalf(g, componentWithout(g, a, b), a)
	if err != nil {
		return nil, err
	}
	tb, err := rootedHalf(g, componentWithout(g, b, a), b)
	if err != nil {
		return nil, err
	}
	// Map halves onto each other by pairing children with equal canonical
	// codes recursively. Indices must be translated back to g.
	subA, oldA := g.InducedSubgraph(componentWithout(g, a, b))
	subB, oldB := g.InducedSubgraph(componentWithout(g, b, a))
	_ = subA
	_ = subB
	perm := make([]int, g.N())
	for i := range perm {
		perm[i] = -1
	}
	codesA := ta.AHUCodes()
	codesB := tb.AHUCodes()
	var pair func(x, y int) error
	pair = func(x, y int) error {
		perm[oldA[x]] = oldB[y]
		perm[oldB[y]] = oldA[x]
		// Pair children by canonical code.
		used := map[int]bool{}
		for _, cx := range ta.Children(x) {
			found := false
			for _, cy := range tb.Children(y) {
				if used[cy] || codesA[cx] != codesB[cy] {
					continue
				}
				used[cy] = true
				if err := pair(cx, cy); err != nil {
					return err
				}
				found = true
				break
			}
			if !found {
				return fmt.Errorf("automorphism: halves claimed isomorphic but child matching failed")
			}
		}
		return nil
	}
	if err := pair(ta.Root(), tb.Root()); err != nil {
		return nil, err
	}
	return perm, nil
}

// IsAutomorphism verifies that perm is a graph automorphism.
func IsAutomorphism(g *graph.Graph, perm []int) bool {
	if len(perm) != g.N() {
		return false
	}
	seen := make([]bool, g.N())
	for _, p := range perm {
		if p < 0 || p >= g.N() || seen[p] {
			return false
		}
		seen[p] = true
	}
	for _, e := range g.Edges() {
		if !g.HasEdge(perm[e[0]], perm[e[1]]) {
			return false
		}
	}
	return true
}

// IsFixedPointFree reports whether perm moves every vertex.
func IsFixedPointFree(perm []int) bool {
	for v, p := range perm {
		if v == p {
			return false
		}
	}
	return true
}
