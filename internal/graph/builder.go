package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates edges for bulk graph construction in O(n+m): edges
// land in two flat endpoint arrays, and Finish distributes them into
// adjacency with a counting sort — no per-edge duplicate scans, no
// per-vertex maps, no incremental append growth. Generators building
// million-vertex graphs and every decoder of network bytes go through a
// Builder; Graph.AddEdge serves small generators and tests.
type Builder struct {
	g      *Graph
	us, vs []int32
}

// NewBuilder starts a builder for a graph with n vertices and default
// identifiers 1..n.
func NewBuilder(n int) *Builder {
	return &Builder{g: New(n)}
}

// NewBuilderWithIDs starts a builder whose i-th vertex has identifier
// ids[i], under the same validity rules as NewWithIDs.
func NewBuilderWithIDs(ids []ID) (*Builder, error) {
	g, err := NewWithIDs(ids)
	if err != nil {
		return nil, err
	}
	return &Builder{g: g}, nil
}

// Grow reserves capacity for m additional edges, so bulk loaders that
// know the edge count up front avoid incremental append growth.
func (b *Builder) Grow(m int) {
	b.us = slices.Grow(b.us, m)
	b.vs = slices.Grow(b.vs, m)
}

// AddEdge records the undirected edge {u, v}. Range and self-loop errors
// surface immediately; duplicate edges are detected at Finish, where the
// sorted rows make the check free.
func (b *Builder) AddEdge(u, v int) error {
	n := b.g.N()
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d rejected", u)
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	return nil
}

// MustAddEdge is AddEdge for construction code where the edge is known
// to be valid; it panics on error.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Finish assembles the graph and returns it. Each adjacency row is a
// full-capacity sub-slice of one flat backing array, so the finished
// graph has the CSR layout (a later AddEdge reallocates its row rather
// than clobbering a neighbour's), and rows come out sorted. The builder
// must not be reused after Finish.
func (b *Builder) Finish() (*Graph, error) {
	g := b.g
	n := g.N()
	m := len(b.us)
	offsets := make([]int64, n+1)
	for i := 0; i < m; i++ {
		offsets[b.us[i]+1]++
		offsets[b.vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	cursor := append([]int64(nil), offsets...)
	neighbors := make([]int32, 2*m)
	for i := 0; i < m; i++ {
		u, v := b.us[i], b.vs[i]
		neighbors[cursor[u]] = v
		cursor[u]++
		neighbors[cursor[v]] = u
		cursor[v]++
	}
	// Sort each row and check for duplicates.
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		row := neighbors[lo:hi:hi]
		slices.Sort(row)
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", v, row[i])
			}
		}
		g.adj[v] = row
	}
	g.m = m
	return g, nil
}
