package treedepth

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/rooted"
)

// IsModel reports whether the rooted tree t (over the same vertex indices
// as g) is an elimination tree of g: every edge of g joins an
// ancestor/descendant pair of t (Definition 3.1).
func IsModel(g *graph.Graph, t *rooted.Tree) bool {
	if t.N() != g.N() {
		return false
	}
	for _, e := range g.Edges() {
		if !t.IsAncestor(e[0], e[1]) && !t.IsAncestor(e[1], e[0]) {
			return false
		}
	}
	return true
}

// ModelDepth returns the depth of the model counted in vertices (a single
// vertex has depth 1), matching the paper's convention that a model of
// depth at most t witnesses treedepth at most t.
func ModelDepth(t *rooted.Tree) int { return t.Height() + 1 }

// IsCoherent reports whether the model is coherent: for every vertex v
// and every child w of v, some vertex in the subtree rooted at w is
// adjacent (in g) to v — the property that guarantees exit vertices exist
// for the Theorem 2.4 certification.
func IsCoherent(g *graph.Graph, t *rooted.Tree) bool {
	for v := 0; v < t.N(); v++ {
		for _, w := range t.Children(v) {
			if !subtreeTouches(g, t, w, v) {
				return false
			}
		}
	}
	return true
}

func subtreeTouches(g *graph.Graph, t *rooted.Tree, subRoot, target int) bool {
	stack := []int{subRoot}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if g.HasEdge(u, target) {
			return true
		}
		stack = append(stack, t.Children(u)...)
	}
	return false
}

// MakeCoherent turns any model of a connected graph into a coherent model
// of the same or smaller depth (Lemma B.1): while some child subtree is
// not adjacent to its parent, re-attach it to the lowest ancestor that is
// adjacent to it. The sum of depths strictly decreases, so the process
// terminates.
func MakeCoherent(g *graph.Graph, t *rooted.Tree) (*rooted.Tree, error) {
	if !IsModel(g, t) {
		return nil, fmt.Errorf("treedepth: MakeCoherent needs a valid model")
	}
	parents := t.Parents()
	for {
		cur, err := rooted.FromParents(parents)
		if err != nil {
			return nil, fmt.Errorf("treedepth: internal: %w", err)
		}
		moved := false
		for v := 0; v < cur.N() && !moved; v++ {
			for _, w := range cur.Children(v) {
				if subtreeTouches(g, cur, w, v) {
					continue
				}
				// Find the lowest strict ancestor of v adjacent to the
				// subtree of w; one exists because g is connected and every
				// edge leaving the subtree goes to an ancestor of w.
				anc := cur.Ancestors(v)[1:] // strict ancestors of v
				target := -1
				for _, a := range anc {
					if subtreeTouches(g, cur, w, a) {
						target = a
						break
					}
				}
				if target == -1 {
					return nil, fmt.Errorf("treedepth: subtree at %d has no ancestor connection; is the graph connected?", w)
				}
				parents[w] = target
				moved = true
				break
			}
		}
		if !moved {
			return cur, nil
		}
	}
}

// FromDFS builds the DFS-tree model of a connected graph rooted at the
// given vertex. Every non-tree edge of a DFS forest is a back edge, so a
// DFS tree is always a valid model — and it is coherent, since each child
// is itself adjacent to its parent. Its depth is only a heuristic upper
// bound on the treedepth.
func FromDFS(g *graph.Graph, root int) (*rooted.Tree, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("treedepth: FromDFS needs a connected graph")
	}
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("treedepth: root %d out of range", root)
	}
	parents := make([]int, g.N())
	for i := range parents {
		parents[i] = -2
	}
	parents[root] = -1
	// A genuine depth-first traversal (frame stack with per-vertex
	// neighbour cursors). A naive push-stack "DFS" would create cross
	// edges between siblings, which are not ancestor/descendant pairs and
	// would break the model property.
	type frame struct{ v, idx int }
	visited := make([]bool, g.N())
	visited[root] = true
	stack := []frame{{v: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nbs := g.Neighbors(f.v)
		if f.idx < len(nbs) {
			w := int(nbs[f.idx])
			f.idx++
			if !visited[w] {
				visited[w] = true
				parents[w] = f.v
				stack = append(stack, frame{v: w})
			}
			continue
		}
		stack = stack[:len(stack)-1]
	}
	return rooted.FromParents(parents)
}

// BestDFSModel tries a DFS model from every vertex and returns the
// shallowest one — a cheap heuristic prover for graphs beyond ExactLimit.
func BestDFSModel(g *graph.Graph) (*rooted.Tree, error) {
	var best *rooted.Tree
	for root := 0; root < g.N(); root++ {
		t, err := FromDFS(g, root)
		if err != nil {
			return nil, err
		}
		if best == nil || ModelDepth(t) < ModelDepth(best) {
			best = t
		}
	}
	if best == nil {
		return nil, fmt.Errorf("treedepth: empty graph")
	}
	return best, nil
}

// FromParentSlice wraps a generator-provided witness (parent array) as a
// model, validating it against the graph.
func FromParentSlice(g *graph.Graph, parents []int) (*rooted.Tree, error) {
	t, err := rooted.FromParents(parents)
	if err != nil {
		return nil, err
	}
	if !IsModel(g, t) {
		return nil, fmt.Errorf("treedepth: parent array is not a model of the graph")
	}
	return t, nil
}
