// Package graph implements the undirected-graph substrate that every
// certification scheme in this module runs on.
//
// Following the paper (§3), all graphs handled by schemes are connected,
// loopless and non-empty; vertices carry unique identifiers from a
// polynomial range. The package also provides the structural algorithms the
// schemes depend on: traversals, connectivity, articulation points,
// biconnected components, and simple path/cycle length computations.
//
// A Graph keeps exactly one adjacency: one ascending []int32 neighbour row
// per vertex. Builder.Finish lays the rows over a single flat array — the
// compressed-sparse-row layout — and AddEdge inserts in sorted position, so
// the prover, the verifiers, netsim shards, the EMSO DP and the elimination
// heuristics all read the same rows, in the same order, through Neighbors.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// ID is a vertex identifier. The paper assumes unique IDs in [1, n^k]; we
// keep them as int64 and account for their width explicitly when encoding.
type ID = int64

// Graph is an undirected, loopless graph over vertices indexed 0..N-1.
// Each vertex has an application-visible identifier; indices are an
// internal, contiguous handle.
//
// The zero value is an empty graph; use New or NewWithIDs to create one,
// or a Builder for bulk construction. A graph that is no longer mutated
// may be read from any number of goroutines.
type Graph struct {
	ids []ID
	adj [][]int32 // neighbour rows, each sorted ascending
	// byID maps identifier to index; nil when identifiers are the default
	// 1..n (the common case for generated graphs), where the mapping is
	// arithmetic and the map would cost n entries for nothing.
	byID  map[ID]int
	m     int // number of edges
	maxID ID  // largest identifier, fixed at construction
}

// New creates a graph with n vertices and default identifiers 1..n.
func New(n int) *Graph {
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID(i + 1)
	}
	return &Graph{
		ids:   ids,
		adj:   make([][]int32, n),
		maxID: ID(n),
	}
}

// NewWithIDs creates a graph whose i-th vertex has identifier ids[i].
// It returns an error if identifiers are not unique or not positive.
func NewWithIDs(ids []ID) (*Graph, error) {
	own := make([]ID, len(ids))
	copy(own, ids)
	g := &Graph{
		ids: own,
		adj: make([][]int32, len(ids)),
	}
	if defaultIDs(own) {
		g.maxID = ID(len(own))
		return g, nil
	}
	byID := make(map[ID]int, len(ids))
	for i, id := range ids {
		if id <= 0 {
			return nil, fmt.Errorf("graph: identifier %d at index %d is not positive", id, i)
		}
		if j, dup := byID[id]; dup {
			return nil, fmt.Errorf("graph: duplicate identifier %d at indices %d and %d", id, j, i)
		}
		byID[id] = i
		if id > g.maxID {
			g.maxID = id
		}
	}
	g.byID = byID
	return g, nil
}

// defaultIDs reports whether ids is exactly the default sequence 1..n,
// for which the identifier-to-index map can be elided.
func defaultIDs(ids []ID) bool {
	for i, id := range ids {
		if id != ID(i+1) {
			return false
		}
	}
	return true
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.ids) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// IDOf returns the identifier of vertex index v.
func (g *Graph) IDOf(v int) ID { return g.ids[v] }

// IndexOf returns the index of the vertex with the given identifier and
// whether it exists.
func (g *Graph) IndexOf(id ID) (int, bool) {
	if g.byID == nil {
		if id >= 1 && id <= ID(len(g.ids)) {
			return int(id - 1), true
		}
		return 0, false
	}
	v, ok := g.byID[id]
	return v, ok
}

// MaxID returns the largest identifier in the graph (0 for an empty
// graph). It is a stored field — the value sits on the cert-encoding hot
// path for ID-width accounting, so it must not rescan the vertex list.
func (g *Graph) MaxID() ID { return g.maxID }

// AddEdge inserts the undirected edge {u, v} given by vertex indices,
// keeping both rows sorted. Self-loops and duplicate edges are rejected
// with an error, keeping the graph simple as the paper requires. An insert
// costs O(deg) in memmoves, so decoders and bulk generators build through
// a Builder instead.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= len(g.ids) || v < 0 || v >= len(g.ids) {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.ids))
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d rejected", u)
	}
	iu, dup := slices.BinarySearch(g.adj[u], int32(v))
	if dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	iv, _ := slices.BinarySearch(g.adj[v], int32(u))
	// Builder rows are capacity-capped sub-slices of one flat array, so the
	// first Insert into one reallocates it instead of clobbering the next.
	g.adj[u] = slices.Insert(g.adj[u], iu, int32(v))
	g.adj[v] = slices.Insert(g.adj[v], iv, int32(u))
	g.m++
	return nil
}

// MustAddEdge is AddEdge for construction code where the edge is known to
// be valid (generators, tests); it panics on error.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge: a linear sweep of the
// shorter sorted row when it is short (bounded-treewidth rows mostly
// are, and at that length the sweep beats the binary search's branch
// misses), binary search otherwise.
//
//certlint:hotpath
func (g *Graph) HasEdge(u, v int) bool {
	n := len(g.ids)
	if u < 0 || u >= n || v < 0 || v >= n {
		return false
	}
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	row := g.adj[u]
	w := int32(v)
	if len(row) <= 16 {
		for _, x := range row {
			if x >= w {
				return x == w
			}
		}
		return false
	}
	_, ok := slices.BinarySearch(row, w)
	return ok
}

// Neighbors returns the neighbour row of v, sorted ascending. The slice
// aliases internal storage and must not be modified.
//
//certlint:hotpath
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns the maximum vertex degree (0 for edgeless graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > max {
			max = d
		}
	}
	return max
}

// Edges returns all edges as index pairs with u < v, sorted. The sorted
// rows make this a single ordered sweep, no sort pass.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u, row := range g.adj {
		for _, v := range row {
			if int(v) > u {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c, err := NewWithIDs(g.ids)
	if err != nil {
		panic(err) // unreachable: ids were already validated
	}
	for u := range g.adj {
		c.adj[u] = slices.Clone(g.adj[u])
	}
	c.m = g.m
	return c
}

// String returns a compact human-readable description, useful in test
// failure messages.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph{n=%d, m=%d, edges=%v}", g.N(), g.M(), g.Edges())
}

// BFSFrom runs a breadth-first search from src and returns the distance
// (in edges) to every vertex, with -1 for unreachable vertices.
//
//certlint:hotpath
func (g *Graph) BFSFrom(src int) []int {
	n := len(g.ids)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, w := range g.adj[u] {
			if dist[w] == -1 {
				dist[w] = du
				queue = append(queue, int(w))
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected. The empty graph is not
// connected (the paper considers non-empty graphs only).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return false
	}
	dist := g.BFSFrom(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Components returns the connected components as lists of vertex indices,
// each sorted, ordered by smallest contained index.
func (g *Graph) Components() [][]int {
	n := len(g.ids)
	seen := make([]bool, n)
	var comps [][]int
	stack := make([]int, 0, 64)
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack = append(stack[:0], s)
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, w := range g.adj[u] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, int(w))
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// InducedSubgraph returns the subgraph induced by the given vertex indices
// (which keep their identifiers), together with the mapping from new index
// to old index.
func (g *Graph) InducedSubgraph(vertices []int) (*Graph, []int) {
	keep := append([]int(nil), vertices...)
	sort.Ints(keep)
	oldToNew := make(map[int]int, len(keep))
	ids := make([]ID, len(keep))
	for newIdx, oldIdx := range keep {
		oldToNew[oldIdx] = newIdx
		ids[newIdx] = g.ids[oldIdx]
	}
	sub, err := NewWithIDs(ids)
	if err != nil {
		panic(err) // unreachable: subset of already-unique IDs
	}
	for _, u := range keep {
		for _, w := range g.adj[u] {
			if v := int(w); u < v {
				if nv, ok := oldToNew[v]; ok {
					sub.MustAddEdge(oldToNew[u], nv)
				}
			}
		}
	}
	return sub, keep
}

// RemoveVertex returns a copy of the graph with vertex v removed, together
// with the mapping from new index to old index.
func (g *Graph) RemoveVertex(v int) (*Graph, []int) {
	keep := make([]int, 0, g.N()-1)
	for u := 0; u < g.N(); u++ {
		if u != v {
			keep = append(keep, u)
		}
	}
	return g.InducedSubgraph(keep)
}

// Eccentricity returns the maximum distance from v to any vertex, or -1 if
// some vertex is unreachable.
func (g *Graph) Eccentricity(v int) int {
	dist := g.BFSFrom(v)
	ecc := 0
	for _, d := range dist {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the maximum eccentricity, or -1 if the graph is
// disconnected or empty.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.N(); v++ {
		e := g.Eccentricity(v)
		if e == -1 {
			return -1
		}
		if e > diam {
			diam = e
		}
	}
	return diam
}

// IsTree reports whether the graph is a tree (connected and m = n-1).
func (g *Graph) IsTree() bool {
	return g.Connected() && g.m == g.N()-1
}

// AdjacencyMatrix returns the n x n boolean adjacency matrix.
func (g *Graph) AdjacencyMatrix() [][]bool {
	n := g.N()
	mat := make([][]bool, n)
	for i := range mat {
		mat[i] = make([]bool, n)
	}
	for u := range g.adj {
		for _, v := range g.adj[u] {
			mat[u][v] = true
		}
	}
	return mat
}
