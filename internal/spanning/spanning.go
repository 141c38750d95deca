// Package spanning implements Proposition 3.4 of the paper: spanning trees
// and the number of vertices can be locally encoded and certified with
// O(log n)-bit certificates.
//
// The certificate of a vertex is a Label carrying the root identifier, the
// parent identifier, the distance to the root, and the subtree size. Local
// verification enforces:
//
//   - all neighbours agree on the root identifier;
//   - the vertex whose identifier equals the root identifier has distance
//     0 and is its own parent; every other vertex has distance d >= 1 and a
//     neighbour with distance d-1 whose identifier equals its parent field
//     (distances strictly decrease toward the root, which rules out cycles
//     and stray components);
//   - the subtree counts satisfy count(v) = 1 + sum of count(w) over the
//     neighbours w that declare v as their parent.
//
// Everything is exposed both as reusable building blocks (BuildBFS, Label,
// CheckStructure, CheckCounts) consumed by the treedepth and kernel
// schemes, and as two self-contained cert.Schemes (Tree, VertexCount).
package spanning

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
)

// Label is the spanning-tree part of a certificate.
type Label struct {
	Root   graph.ID // identifier of the root of the spanning tree
	Parent graph.ID // identifier of the parent (own ID at the root)
	Dist   uint64   // distance to the root along the tree
	Count  uint64   // number of vertices in this vertex's subtree
}

// Encode appends the label to w using self-delimiting varints, so the
// total size is O(log n) bits for IDs in a polynomial range.
func (l Label) Encode(w *bitio.Writer) {
	w.WriteUvarint(uint64(l.Root))
	w.WriteUvarint(uint64(l.Parent))
	w.WriteUvarint(l.Dist)
	w.WriteUvarint(l.Count)
}

// Decode reads a label previously written by Encode.
func Decode(r *bitio.Reader) (Label, error) {
	var l Label
	root, err := r.ReadUvarint()
	if err != nil {
		return l, fmt.Errorf("spanning: decode root: %w", err)
	}
	parent, err := r.ReadUvarint()
	if err != nil {
		return l, fmt.Errorf("spanning: decode parent: %w", err)
	}
	dist, err := r.ReadUvarint()
	if err != nil {
		return l, fmt.Errorf("spanning: decode dist: %w", err)
	}
	count, err := r.ReadUvarint()
	if err != nil {
		return l, fmt.Errorf("spanning: decode count: %w", err)
	}
	l.Root = graph.ID(root)
	l.Parent = graph.ID(parent)
	l.Dist = dist
	l.Count = count
	return l, nil
}

// BuildBFS computes a BFS spanning tree of g rooted at root and returns
// the parent array (parent[root] = -1) and the distance array. It returns
// an error if g is disconnected.
func BuildBFS(g *graph.Graph, root int) ([]int, []int, error) {
	if root < 0 || root >= g.N() {
		return nil, nil, fmt.Errorf("spanning: root %d out of range", root)
	}
	dist := g.BFSFrom(root)
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = -1
	}
	for v := 0; v < g.N(); v++ {
		if dist[v] == -1 {
			return nil, nil, fmt.Errorf("spanning: graph is disconnected (vertex %d unreachable)", v)
		}
		if v == root {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if dist[w] == dist[v]-1 {
				parent[v] = int(w)
				break
			}
		}
	}
	return parent, dist, nil
}

// LabelsFor computes the complete spanning-tree labelling of g rooted at
// root, including subtree counts.
func LabelsFor(g *graph.Graph, root int) ([]Label, error) {
	parent, dist, err := BuildBFS(g, root)
	if err != nil {
		return nil, err
	}
	counts := SubtreeCounts(parent)
	labels := make([]Label, g.N())
	for v := 0; v < g.N(); v++ {
		l := Label{Root: g.IDOf(root), Dist: uint64(dist[v]), Count: uint64(counts[v])}
		if parent[v] == -1 {
			l.Parent = g.IDOf(v)
		} else {
			l.Parent = g.IDOf(parent[v])
		}
		labels[v] = l
	}
	return labels, nil
}

// SubtreeCounts returns, for each vertex of a rooted forest given by a
// parent array, the number of vertices in its subtree.
func SubtreeCounts(parent []int) []int {
	n := len(parent)
	counts := make([]int, n)
	order := make([]int, 0, n)
	children := make([][]int, n)
	roots := make([]int, 0, 1)
	for v, p := range parent {
		if p == -1 {
			roots = append(roots, v)
		} else {
			children[p] = append(children[p], v)
		}
	}
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, v)
		stack = append(stack, children[v]...)
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		counts[v] = 1
		for _, c := range children[v] {
			counts[v] += counts[c]
		}
	}
	return counts
}

// NeighborLabel pairs a neighbour identifier with its decoded label.
type NeighborLabel struct {
	ID    graph.ID
	Label Label
}

// CheckStructure runs the structural part of the local verification (root
// agreement, distance decrease, parent existence) for a vertex with
// identifier ownID and label own, given its neighbours' labels.
func CheckStructure(ownID graph.ID, own Label, neighbors []NeighborLabel) bool {
	for _, nb := range neighbors {
		if nb.Label.Root != own.Root {
			return false
		}
	}
	if ownID == own.Root {
		return own.Dist == 0 && own.Parent == ownID
	}
	if own.Dist == 0 {
		return false // only the root may claim distance 0
	}
	for _, nb := range neighbors {
		if nb.ID == own.Parent && nb.Label.Dist == own.Dist-1 {
			return true
		}
	}
	return false
}

// CheckCounts runs the counting part of the verification: count(v) must be
// 1 plus the counts of the neighbours that declare v as parent; children
// must also sit one level below v.
func CheckCounts(ownID graph.ID, own Label, neighbors []NeighborLabel) bool {
	sum := uint64(1)
	for _, nb := range neighbors {
		if nb.Label.Parent == ownID && nb.ID != ownID {
			if nb.Label.Dist != own.Dist+1 {
				return false
			}
			sum += nb.Label.Count
		}
	}
	return own.Count == sum
}

// Tree is the spanning-tree certification scheme. The property it decides
// is connectivity (always true on the paper's graphs); its value is the
// certified structure, which other schemes embed and which the tamper
// tests attack.
type Tree struct{}

var _ cert.Scheme = Tree{}

// Name implements cert.Scheme.
func (Tree) Name() string { return "spanning-tree" }

// Holds implements cert.Scheme: the property is connectivity.
func (Tree) Holds(g *graph.Graph) (bool, error) { return g.Connected(), nil }

// Prove implements cert.Scheme: it roots a BFS tree at the minimum-ID
// vertex and labels every vertex.
func (Tree) Prove(g *graph.Graph) (cert.Assignment, error) {
	if !g.Connected() {
		return nil, fmt.Errorf("spanning: cannot certify a disconnected graph")
	}
	root := minIDVertex(g)
	labels, err := LabelsFor(g, root)
	if err != nil {
		return nil, err
	}
	a := make(cert.Assignment, g.N())
	for v, l := range labels {
		var w bitio.Writer
		l.Encode(&w)
		a[v] = w.Clone()
	}
	return a, nil
}

// Verify implements cert.Scheme.
func (Tree) Verify(v cert.View) bool {
	own, neighbors, ok := decodeView(v)
	if !ok {
		return false
	}
	return CheckStructure(v.ID, own, neighbors) && CheckCounts(v.ID, own, neighbors)
}

// VertexCount certifies "the graph has exactly N vertices" (the second
// half of Proposition 3.4). It reuses the Tree labelling and additionally
// requires the root's subtree count to equal N.
type VertexCount struct{ N int }

var _ cert.Scheme = VertexCount{}

// Name implements cert.Scheme.
func (s VertexCount) Name() string { return fmt.Sprintf("vertex-count(%d)", s.N) }

// Holds implements cert.Scheme.
func (s VertexCount) Holds(g *graph.Graph) (bool, error) {
	return g.Connected() && g.N() == s.N, nil
}

// Prove implements cert.Scheme.
func (s VertexCount) Prove(g *graph.Graph) (cert.Assignment, error) {
	holds, err := s.Holds(g)
	if err != nil {
		return nil, err
	}
	if !holds {
		return nil, fmt.Errorf("spanning: graph has %d vertices, not %d", g.N(), s.N)
	}
	return Tree{}.Prove(g)
}

// Verify implements cert.Scheme.
func (s VertexCount) Verify(v cert.View) bool {
	own, neighbors, ok := decodeView(v)
	if !ok {
		return false
	}
	if !CheckStructure(v.ID, own, neighbors) || !CheckCounts(v.ID, own, neighbors) {
		return false
	}
	if v.ID == own.Root && own.Count != uint64(s.N) {
		return false
	}
	return true
}

func decodeView(v cert.View) (Label, []NeighborLabel, bool) {
	own, err := Decode(bitio.NewReader(v.Cert))
	if err != nil {
		return Label{}, nil, false
	}
	neighbors := make([]NeighborLabel, 0, len(v.Neighbors))
	for _, nb := range v.Neighbors {
		l, err := Decode(bitio.NewReader(nb.Cert))
		if err != nil {
			return Label{}, nil, false
		}
		neighbors = append(neighbors, NeighborLabel{ID: nb.ID, Label: l})
	}
	return own, neighbors, true
}

func minIDVertex(g *graph.Graph) int {
	best := 0
	for v := 1; v < g.N(); v++ {
		if g.IDOf(v) < g.IDOf(best) {
			best = v
		}
	}
	return best
}
