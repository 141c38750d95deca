// Package graphgen generates the graph families used throughout the paper:
// basic shapes (paths, cycles, cliques, stars, caterpillars), random trees
// and connected graphs, graphs of bounded treedepth with a known witness
// model, and the lower-bound gadgets of Section 7.
package graphgen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Path returns the path P_n on n vertices.
func Path(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// Cycle returns the cycle C_n on n >= 3 vertices.
func Cycle(n int) *graph.Graph {
	if n < 3 {
		panic(fmt.Sprintf("graphgen: cycle needs n >= 3, got %d", n))
	}
	g := Path(n)
	g.MustAddEdge(n-1, 0)
	return g
}

// Clique returns the complete graph K_n.
func Clique(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(i, j)
		}
	}
	return g
}

// Star returns the star K_{1,n-1}: vertex 0 adjacent to all others.
func Star(n int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, i)
	}
	return g
}

// Caterpillar returns a caterpillar: a spine path of spineLen vertices with
// legsPerSpine pendant leaves on each spine vertex.
func Caterpillar(spineLen, legsPerSpine int) *graph.Graph {
	n := spineLen + spineLen*legsPerSpine
	g := graph.New(n)
	for i := 0; i+1 < spineLen; i++ {
		g.MustAddEdge(i, i+1)
	}
	next := spineLen
	for i := 0; i < spineLen; i++ {
		for l := 0; l < legsPerSpine; l++ {
			g.MustAddEdge(i, next)
			next++
		}
	}
	return g
}

// CompleteBinaryTree returns a complete binary tree with the given number
// of levels (levels >= 1; 1 level is a single vertex).
func CompleteBinaryTree(levels int) *graph.Graph {
	if levels < 1 {
		panic("graphgen: levels must be >= 1")
	}
	n := 1<<uint(levels) - 1
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, (v-1)/2)
	}
	return g
}

// RandomTree returns a uniformly random labelled tree on n vertices via a
// random Prüfer sequence.
func RandomTree(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	switch {
	case n <= 1:
		return g
	case n == 2:
		g.MustAddEdge(0, 1)
		return g
	}
	prufer := make([]int, n-2)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
	}
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for _, v := range prufer {
		degree[v]++
	}
	// Standard Prüfer decoding with a pointer-and-leaf scan.
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range prufer {
		g.MustAddEdge(leaf, v)
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	g.MustAddEdge(leaf, n-1)
	return g
}

// RandomTreeOfDepth returns a random rooted tree (as a graph, rooted at
// vertex 0) with exactly n vertices and height at most maxDepth (root has
// depth 0). Each new vertex attaches to a uniformly random existing vertex
// of depth < maxDepth.
func RandomTreeOfDepth(n, maxDepth int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	if n == 0 {
		return g
	}
	depth := make([]int, n)
	eligible := []int{0}
	for v := 1; v < n; v++ {
		p := eligible[rng.Intn(len(eligible))]
		g.MustAddEdge(v, p)
		depth[v] = depth[p] + 1
		if depth[v] < maxDepth {
			eligible = append(eligible, v)
		}
	}
	return g
}

// RandomConnected returns a random connected graph on n vertices with
// approximately extraEdges edges added on top of a random spanning tree.
func RandomConnected(n, extraEdges int, rng *rand.Rand) *graph.Graph {
	g := RandomTree(n, rng)
	for e := 0; e < extraEdges; e++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// BoundedTreedepth returns a random connected graph with treedepth at most
// t, together with the witness elimination-tree parent array (parent[v] is
// the parent index of v, -1 for the root). Edges are only placed between
// ancestor/descendant pairs of the witness tree, which bounds the treedepth
// by construction (Definition 3.1); the tree edges themselves are included,
// which makes the witness coherent and the graph connected.
//
// extraDensity in [0,1] controls how many optional ancestor edges appear.
func BoundedTreedepth(n, t int, extraDensity float64, rng *rand.Rand) (*graph.Graph, []int) {
	if t < 1 {
		panic("graphgen: treedepth bound must be >= 1")
	}
	g := graph.New(n)
	parent := make([]int, n)
	depth := make([]int, n)
	parent[0] = -1
	depth[0] = 1
	eligible := []int{0}
	for v := 1; v < n; v++ {
		p := eligible[rng.Intn(len(eligible))]
		parent[v] = p
		depth[v] = depth[p] + 1
		if depth[v] < t {
			eligible = append(eligible, v)
		}
	}
	// Mandatory edge to parent keeps the model coherent and the graph
	// connected; optional edges go to strict ancestors.
	for v := 1; v < n; v++ {
		g.MustAddEdge(v, parent[v])
		for a := parent[parent[v]]; ; {
			if a < 0 {
				break
			}
			if rng.Float64() < extraDensity {
				if !g.HasEdge(v, a) {
					g.MustAddEdge(v, a)
				}
			}
			if parent[a] < 0 {
				break
			}
			a = parent[a]
		}
	}
	return g, parent
}

// KTree returns a random k-tree on n vertices (n >= k+1) together with
// its construction record: attach[v] is the sorted k-clique vertex v was
// attached to (nil for the k+1 seed vertices). A k-tree has treewidth
// exactly k (for n > k), and the record is the ground-truth decomposition
// witness: bag {v} ∪ attach[v] per attached vertex (see
// treewidth.FromKTree).
func KTree(n, k int, rng *rand.Rand) (*graph.Graph, [][]int) {
	if k < 1 || n < k+1 {
		panic(fmt.Sprintf("graphgen: k-tree needs k >= 1 and n >= k+1, got n=%d k=%d", n, k))
	}
	b := graph.NewBuilder(n)
	attach := make([][]int, n)
	// Seed clique on 0..k.
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			mustBuildEdge(b, i, j)
		}
	}
	// The attachable k-cliques are never materialised as a list — that
	// list holds k cliques per vertex and made the generator O(nk²) in
	// memory. Instead cliques are numbered in the order the list-based
	// construction appended them, and decoded on demand:
	//
	//   c in [0, k]:  the seed subset {0..k} \ {c}
	//   c >  k:       let j = c-(k+1); vertex v = k+1 + j/k swapped its
	//                 attachment clique's member at position i = j%k for
	//                 itself, so the clique is attach[v] minus that member
	//                 plus v — already sorted, since every member of
	//                 attach[v] precedes v.
	//
	// One rng.Intn per vertex over the same index range as before keeps
	// seeded outputs identical to the list-based generator.
	buf := make([]int, 0, k)
	cliqueAt := func(c int) []int {
		buf = buf[:0]
		if c <= k {
			for i := 0; i <= k; i++ {
				if i != c {
					buf = append(buf, i)
				}
			}
			return buf
		}
		j := c - (k + 1)
		v, i := k+1+j/k, j%k
		av := attach[v]
		buf = append(buf, av[:i]...)
		buf = append(buf, av[i+1:]...)
		buf = append(buf, v)
		return buf
	}
	// attach rows share one exactly-sized backing array; capacity caps
	// make any caller append reallocate instead of clobbering the next row.
	flat := make([]int, 0, k*(n-k-1))
	for v := k + 1; v < n; v++ {
		count := (k + 1) + (v-(k+1))*k
		c := cliqueAt(rng.Intn(count))
		start := len(flat)
		flat = append(flat, c...)
		attach[v] = flat[start:len(flat):len(flat)]
		for _, u := range c {
			mustBuildEdge(b, v, u)
		}
	}
	return mustFinish(b), attach
}

// mustBuildEdge adds an edge that is valid by construction.
func mustBuildEdge(b *graph.Builder, u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(fmt.Sprintf("graphgen: internal edge invalid: %v", err))
	}
}

// mustFinish finalises a builder whose edges are distinct by construction.
func mustFinish(b *graph.Builder) *graph.Graph {
	g, err := b.Finish()
	if err != nil {
		panic(fmt.Sprintf("graphgen: internal build failed: %v", err))
	}
	return g
}

// PartialKTree returns a random partial k-tree — a connected subgraph of a
// random k-tree, so treewidth <= k by construction — together with the
// k-tree's construction record, which remains a valid decomposition
// witness for the subgraph. Each optional edge survives with probability
// keepProb; a spanning skeleton (the seed path 0-1-...-k and one edge from
// every attached vertex into its clique) is always kept so the graph stays
// connected.
func PartialKTree(n, k int, keepProb float64, rng *rand.Rand) (*graph.Graph, [][]int) {
	full, attach := KTree(n, k, rng)
	b := graph.NewBuilder(n)
	// Walking the sorted rows with w > u enumerates edges in exactly the
	// sorted order Edges() produces, so the per-edge rng.Float64 sequence
	// — and with it every seeded graph — is unchanged.
	for u := 0; u < n; u++ {
		for _, w := range full.Neighbors(u) {
			v := int(w)
			if v <= u {
				continue
			}
			mandatory := false
			switch {
			case v <= k:
				mandatory = v == u+1 // seed path
			case attach[v] != nil && u == attach[v][0]:
				mandatory = true // first clique member anchors v
			}
			if mandatory || rng.Float64() < keepProb {
				mustBuildEdge(b, u, v)
			}
		}
	}
	return mustFinish(b), attach
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				g.MustAddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	return g
}

// Spider returns a spider: legs paths of length legLen glued at a center.
func Spider(legs, legLen int) *graph.Graph {
	g := graph.New(1 + legs*legLen)
	next := 1
	for l := 0; l < legs; l++ {
		prev := 0
		for s := 0; s < legLen; s++ {
			g.MustAddEdge(prev, next)
			prev = next
			next++
		}
	}
	return g
}
