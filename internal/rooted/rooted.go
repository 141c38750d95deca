// Package rooted provides rooted, unordered, unranked trees: the structures
// on which the paper's tree automata (Section 4), kernels (Section 6) and
// automorphism arguments (Section 7.2) operate.
//
// A Tree is stored as a parent array over vertices 0..N-1 with the root at
// parent -1; children are unordered. The package computes AHU canonical
// codes (isomorphism of rooted trees), tree centers (for unrooted
// isomorphism and automorphism questions), depths and subtree sizes.
package rooted

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Tree is a rooted unordered tree on vertices 0..N-1.
type Tree struct {
	parent   []int
	children [][]int
	root     int
}

// FromParents builds a tree from a parent array: exactly one entry must be
// -1 (the root) and the parent pointers must be acyclic.
func FromParents(parent []int) (*Tree, error) {
	n := len(parent)
	if n == 0 {
		return nil, fmt.Errorf("rooted: empty tree")
	}
	t := &Tree{
		parent:   append([]int(nil), parent...),
		children: make([][]int, n),
		root:     -1,
	}
	for v, p := range parent {
		switch {
		case p == -1:
			if t.root != -1 {
				return nil, fmt.Errorf("rooted: multiple roots (%d and %d)", t.root, v)
			}
			t.root = v
		case p < 0 || p >= n:
			return nil, fmt.Errorf("rooted: parent[%d] = %d out of range", v, p)
		default:
			t.children[p] = append(t.children[p], v)
		}
	}
	if t.root == -1 {
		return nil, fmt.Errorf("rooted: no root")
	}
	// Acyclicity: every vertex must reach the root.
	seen := make([]int8, n) // 0 unknown, 1 in-progress, 2 ok
	for v := 0; v < n; v++ {
		var chain []int
		x := v
		for seen[x] == 0 && x != t.root {
			seen[x] = 1
			chain = append(chain, x)
			x = parent[x]
			if seen[x] == 1 {
				return nil, fmt.Errorf("rooted: cycle through vertex %d", x)
			}
		}
		for _, c := range chain {
			seen[c] = 2
		}
	}
	return t, nil
}

// FromGraph roots the given tree-shaped graph at the vertex index root,
// returning the rooted tree over the same indices.
func FromGraph(g *graph.Graph, root int) (*Tree, error) {
	if !g.IsTree() {
		return nil, fmt.Errorf("rooted: graph is not a tree (n=%d m=%d)", g.N(), g.M())
	}
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("rooted: root %d out of range", root)
	}
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -2
	}
	parent[root] = -1
	stack := []int{root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(u) {
			if parent[w] == -2 {
				parent[w] = u
				stack = append(stack, int(w))
			}
		}
	}
	return FromParents(parent)
}

// N returns the number of vertices.
func (t *Tree) N() int { return len(t.parent) }

// Root returns the root vertex.
func (t *Tree) Root() int { return t.root }

// Parent returns the parent of v (-1 for the root).
func (t *Tree) Parent(v int) int { return t.parent[v] }

// Children returns the children of v; the slice must not be modified.
func (t *Tree) Children(v int) []int { return t.children[v] }

// Parents returns a copy of the parent array.
func (t *Tree) Parents() []int { return append([]int(nil), t.parent...) }

// Depths returns the depth of every vertex (root has depth 0).
func (t *Tree) Depths() []int {
	depth := make([]int, t.N())
	for _, v := range t.PreOrder() {
		if v == t.root {
			depth[v] = 0
		} else {
			depth[v] = depth[t.parent[v]] + 1
		}
	}
	return depth
}

// Height returns the maximum depth (a single vertex has height 0).
func (t *Tree) Height() int {
	h := 0
	for _, d := range t.Depths() {
		if d > h {
			h = d
		}
	}
	return h
}

// PreOrder returns the vertices in a preorder traversal (parents before
// children).
func (t *Tree) PreOrder() []int {
	order := make([]int, 0, t.N())
	stack := []int{t.root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		stack = append(stack, t.children[v]...)
	}
	return order
}

// PostOrder returns the vertices in a postorder traversal (children before
// parents).
func (t *Tree) PostOrder() []int {
	pre := t.PreOrder()
	for i, j := 0, len(pre)-1; i < j; i, j = i+1, j-1 {
		pre[i], pre[j] = pre[j], pre[i]
	}
	return pre
}

// SubtreeSizes returns, for every vertex, the number of vertices in its
// subtree (including itself).
func (t *Tree) SubtreeSizes() []int {
	size := make([]int, t.N())
	for _, v := range t.PostOrder() {
		size[v] = 1
		for _, c := range t.children[v] {
			size[v] += size[c]
		}
	}
	return size
}

// SubtreeVertices returns the vertices of the subtree rooted at v.
func (t *Tree) SubtreeVertices(v int) []int {
	var out []int
	stack := []int{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, u)
		stack = append(stack, t.children[u]...)
	}
	sort.Ints(out)
	return out
}

// Ancestors returns the ancestors of v from v itself up to the root
// (inclusive of both ends).
func (t *Tree) Ancestors(v int) []int {
	var out []int
	for x := v; x != -1; x = t.parent[x] {
		out = append(out, x)
	}
	return out
}

// IsAncestor reports whether u is an ancestor of v (a vertex is an ancestor
// of itself).
func (t *Tree) IsAncestor(u, v int) bool {
	for x := v; x != -1; x = t.parent[x] {
		if x == u {
			return true
		}
	}
	return false
}

// ToGraph returns the tree as an undirected graph over the same indices
// with default identifiers.
func (t *Tree) ToGraph() *graph.Graph {
	g := graph.New(t.N())
	for v, p := range t.parent {
		if p != -1 {
			g.MustAddEdge(v, p)
		}
	}
	return g
}

// AHUCodes returns a canonical string code for every subtree: two vertices
// receive the same code iff their rooted subtrees are isomorphic (the
// classic Aho–Hopcroft–Ullman encoding with sorted child codes).
func (t *Tree) AHUCodes() []string {
	codes := make([]string, t.N())
	for _, v := range t.PostOrder() {
		kids := make([]string, 0, len(t.children[v]))
		for _, c := range t.children[v] {
			kids = append(kids, codes[c])
		}
		sort.Strings(kids)
		var b strings.Builder
		b.WriteByte('(')
		for _, k := range kids {
			b.WriteString(k)
		}
		b.WriteByte(')')
		codes[v] = b.String()
	}
	return codes
}

// CanonicalCode returns the AHU code of the whole rooted tree.
func (t *Tree) CanonicalCode() string {
	return t.AHUCodes()[t.root]
}

// Isomorphic reports whether two rooted trees are isomorphic as rooted
// unordered trees.
func Isomorphic(a, b *Tree) bool {
	if a.N() != b.N() {
		return false
	}
	return a.CanonicalCode() == b.CanonicalCode()
}

// Centers returns the 1- or 2-element set of center vertices of a
// tree-shaped graph (the vertices minimizing eccentricity), computed by
// iterative leaf stripping.
func Centers(g *graph.Graph) ([]int, error) {
	if !g.IsTree() {
		return nil, fmt.Errorf("rooted: centers of a non-tree")
	}
	n := g.N()
	if n == 1 {
		return []int{0}, nil
	}
	deg := make([]int, n)
	removed := make([]bool, n)
	var layer []int
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] <= 1 {
			layer = append(layer, v)
		}
	}
	remaining := n
	for remaining > 2 {
		var next []int
		for _, v := range layer {
			removed[v] = true
			remaining--
			for _, w := range g.Neighbors(v) {
				if !removed[w] {
					deg[w]--
					if deg[w] == 1 {
						next = append(next, int(w))
					}
				}
			}
		}
		layer = next
	}
	var centers []int
	for v := 0; v < n; v++ {
		if !removed[v] {
			centers = append(centers, v)
		}
	}
	sort.Ints(centers)
	return centers, nil
}

// UnrootedIsomorphic reports whether two tree-shaped graphs are isomorphic
// as unrooted trees, by comparing canonical codes rooted at centers.
func UnrootedIsomorphic(a, b *graph.Graph) (bool, error) {
	if a.N() != b.N() {
		return false, nil
	}
	ca, err := canonicalUnrooted(a)
	if err != nil {
		return false, err
	}
	cb, err := canonicalUnrooted(b)
	if err != nil {
		return false, err
	}
	return ca == cb, nil
}

func canonicalUnrooted(g *graph.Graph) (string, error) {
	centers, err := Centers(g)
	if err != nil {
		return "", err
	}
	best := ""
	for _, c := range centers {
		t, err := FromGraph(g, c)
		if err != nil {
			return "", err
		}
		code := t.CanonicalCode()
		if best == "" || code < best {
			best = code
		}
	}
	return best, nil
}
