package graph

import (
	"math/bits"
	"slices"

	"repro/internal/fault"
)

// ArticulationPoints returns the cut vertices of the graph as a sorted
// list of vertex indices, nil if there are none: the vertices that lie in
// two or more blocks of BiconnectedComponents.
func (g *Graph) ArticulationPoints() []int {
	blocksOf := make([]int32, g.N())
	for _, b := range g.BiconnectedComponents() {
		for _, v := range b {
			blocksOf[v]++
		}
	}
	var out []int
	for v, k := range blocksOf {
		if k >= 2 {
			out = append(out, v)
		}
	}
	return out
}

// BiconnectedComponents returns the 2-connected components (blocks) of the
// graph as vertex-index sets. Bridges form blocks of size 2. Every edge
// belongs to exactly one block; cut vertices belong to several. It is
// BiconnectedComponentsCp with an inert checkpoint, for callers with no
// deadline to honour.
func (g *Graph) BiconnectedComponents() [][]int {
	var cp fault.Checkpoint // zero value: never cancels
	blocks, _ := g.BiconnectedComponentsCp(&cp)
	return blocks
}

// BiconnectedComponentsCp returns the blocks of the graph, probing cp on
// every DFS step: on a partial 4-tree at n=10⁶ the split runs for about
// half a second (2-vCPU Xeon), twice a 250ms disconnect budget, so a
// caller with a deadline can abandon it, getting the checkpoint's
// *fault.CancelledError. Blocks come out in pop order, each sorted
// ascending.
//
// The walk is Tarjan's low-link DFS over a vertex stack: every vertex is
// pushed once, when discovered, and a finished child v whose low-link
// does not reach above its parent p pops the stack down to v; those
// vertices plus p are p's block through v. That is the vertex set the
// edge-stack formulation pops at the same moment, without the m-entry
// edge stack or a duplicate check per popped edge. The DFS state is two
// int32 arrays (discovery time and low-link), the vertex stack and the
// frame stack, whose next-lower frame is each vertex's parent. A frame is
// 8 bytes, the vertex and the position of its next row entry, so a DFS
// as deep as the graph (the rim of a wheel) costs 8 bytes per level.
//
//certlint:longrun
func (g *Graph) BiconnectedComponentsCp(cp *fault.Checkpoint) ([][]int, error) {
	n := g.N()
	// disc[v] is v's discovery time counted from 1, so the zeroed
	// allocation marks every vertex unvisited.
	disc := make([]int32, n)
	low := make([]int32, n)
	var timer int32
	type frame struct {
		v    int32
		next int32 // the position in g.adj[v] of the next entry to walk
	}
	var frames []frame
	verts := make([]int32, 0, n)
	mark := make([]uint64, (n+63)/64) // sortBlock's scratch, all zero
	var blocks [][]int
	for s := 0; s < n; s++ {
		if disc[s] != 0 {
			continue
		}
		timer++
		disc[s], low[s] = timer, timer
		frames = append(frames[:0], frame{v: int32(s)})
		verts = append(verts[:0], int32(s))
		for {
			if err := cp.Check(); err != nil {
				return nil, err
			}
			f := &frames[len(frames)-1]
			v := f.v
			if row := g.adj[v]; int(f.next) < len(row) {
				w := row[f.next]
				f.next++
				if d := disc[w]; d != 0 {
					// A visited neighbour: the tree edge back to the
					// parent, which does not count, or an edge to an
					// ancestor or a descendant, of which only the
					// ancestor's time can lower v's low-link.
					if d < low[v] && (len(frames) < 2 || w != frames[len(frames)-2].v) {
						low[v] = d
					}
					continue
				}
				timer++
				disc[w], low[w] = timer, timer
				frames = append(frames, frame{v: w})
				verts = append(verts, w)
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				break
			}
			p := frames[len(frames)-1].v
			low[p] = min(low[p], low[v])
			if low[v] < disc[p] {
				continue
			}
			// p separates v's subtree: pop the block down to v.
			i := len(verts) - 1
			for verts[i] != v {
				i--
			}
			block := make([]int, len(verts)-i+1)
			for k, u := range verts[i:] {
				block[k] = int(u)
			}
			block[len(block)-1] = int(p)
			verts = verts[:i]
			sortBlock(block, mark)
			blocks = append(blocks, block)
		}
	}
	return blocks, nil
}

// sortBlock sorts block, a non-empty set of distinct vertex indices,
// ascending. When the index range the block spans is short next to a
// comparison sort of it — the giant block of a tree-like graph spans
// little more than its own size — it sets each member's bit in mark and
// reads the members back in index order instead, one word per 64
// indices of the range. mark must be all zero, and is again on return.
func sortBlock(block []int, mark []uint64) {
	lo, hi := block[0], block[0]
	for _, v := range block {
		lo, hi = min(lo, v), max(hi, v)
	}
	if (hi-lo)>>6 >= len(block)*bits.Len(uint(len(block))) {
		slices.Sort(block)
		return
	}
	for _, v := range block {
		mark[v>>6] |= 1 << (v & 63)
	}
	k := 0
	for w := lo >> 6; w <= hi>>6; w++ {
		for x := mark[w]; x != 0; x &= x - 1 {
			block[k] = w<<6 + bits.TrailingZeros64(x)
			k++
		}
		mark[w] = 0
	}
}

// LongestPathVertices returns the number of vertices on a longest simple
// path. It is exact and exponential in the worst case, intended for the
// small graphs used in minor experiments (P_t-minor-freeness: a graph has a
// P_t minor iff it contains a path on t vertices).
//
// A DFS over (current vertex, visited set) with memoization on small graphs
// (n <= 63) keeps this usable up to a few tens of vertices.
func (g *Graph) LongestPathVertices() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	if n > 63 {
		// Fall back to a bounded DFS without memoization; still exact but
		// practical only on sparse graphs (trees, near-trees).
		best := 0
		visited := make([]bool, n)
		var dfs func(v, length int)
		dfs = func(v, length int) {
			if length > best {
				best = length
			}
			for _, w := range g.adj[v] {
				if !visited[w] {
					visited[w] = true
					dfs(int(w), length+1)
					visited[w] = false
				}
			}
		}
		for s := 0; s < n; s++ {
			visited[s] = true
			dfs(s, 1)
			visited[s] = false
		}
		return best
	}
	best := 0
	type key struct {
		v    int
		mask uint64
	}
	memo := map[key]int{}
	var dfs func(v int, mask uint64) int
	dfs = func(v int, mask uint64) int {
		k := key{v, mask}
		if r, ok := memo[k]; ok {
			return r
		}
		res := 1
		for _, w := range g.adj[v] {
			if mask&(1<<uint(w)) == 0 {
				if r := 1 + dfs(int(w), mask|1<<uint(w)); r > res {
					res = r
				}
			}
		}
		memo[k] = res
		return res
	}
	for s := 0; s < n; s++ {
		if r := dfs(s, 1<<uint(s)); r > best {
			best = r
		}
	}
	return best
}

// LongestCycleVertices returns the number of vertices on a longest simple
// cycle, or 0 if the graph is acyclic. Like LongestPathVertices it is exact
// and intended for small graphs (C_t-minor-freeness: a graph has a C_t
// minor iff it contains a cycle of length >= t).
func (g *Graph) LongestCycleVertices() int {
	n := g.N()
	best := 0
	visited := make([]bool, n)
	var dfs func(start, v, length int)
	dfs = func(start, v, length int) {
		for _, x := range g.adj[v] {
			w := int(x)
			if w == start && length >= 3 {
				if length > best {
					best = length
				}
				continue
			}
			// Only extend to vertices larger than start to canonicalize the
			// cycle's smallest vertex and prune the search.
			if w > start && !visited[w] {
				visited[w] = true
				dfs(start, w, length+1)
				visited[w] = false
			}
		}
	}
	for s := 0; s < n; s++ {
		visited[s] = true
		dfs(s, s, 1)
		visited[s] = false
	}
	return best
}

// Girth returns the length of a shortest cycle, or 0 if the graph is
// acyclic. BFS from every vertex; O(n*m).
func (g *Graph) Girth() int {
	best := 0
	n := g.N()
	dist := make([]int, n)
	par := make([]int, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
			par[i] = -1
		}
		dist[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, x := range g.adj[u] {
				v := int(x)
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					par[v] = u
					queue = append(queue, v)
				} else if par[u] != v && par[v] != u {
					c := dist[u] + dist[v] + 1
					if best == 0 || c < best {
						best = c
					}
				}
			}
		}
	}
	return best
}
