package graph

import "sort"

// ArticulationPoints returns the set of cut vertices of the graph as a
// sorted list of vertex indices, using Tarjan's low-link algorithm
// (iteratively, to stay safe on deep graphs).
func (g *Graph) ArticulationPoints() []int {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	isCut := make([]bool, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0

	type frame struct {
		v, childIdx, rootChildren int
	}
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{v: s}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			row := g.adj[v]
			if f.childIdx < len(row) {
				w := int(row[f.childIdx])
				f.childIdx++
				if w == parent[v] {
					continue
				}
				if disc[w] != -1 {
					if disc[w] < low[v] {
						low[v] = disc[w]
					}
					continue
				}
				parent[w] = v
				if v == s {
					f.rootChildren++
				}
				disc[w] = timer
				low[w] = timer
				timer++
				stack = append(stack, frame{v: w})
				continue
			}
			// Post-order: propagate low-link to parent.
			stack = stack[:len(stack)-1]
			if p := parent[v]; p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if p != s && low[v] >= disc[p] {
					isCut[p] = true
				}
			}
		}
		// Root rule: the DFS root is a cut vertex iff it has >= 2 DFS children.
		rootChildren := 0
		for _, w := range g.adj[s] {
			if parent[w] == s {
				rootChildren++
			}
		}
		if rootChildren >= 2 {
			isCut[s] = true
		}
	}

	var out []int
	for v, cut := range isCut {
		if cut {
			out = append(out, v)
		}
	}
	return out
}

// BiconnectedComponents returns the 2-connected components (blocks) of the
// graph as vertex-index sets. Bridges form blocks of size 2. Every edge
// belongs to exactly one block; cut vertices belong to several. An
// epoch-stamped mark array instead of a per-block membership map keeps
// popping a block down to allocating its output.
func (g *Graph) BiconnectedComponents() [][]int {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	stamp := make([]int, n) // stamp[v] == epoch: v already in the block being popped
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
		stamp[i] = -1
	}
	timer := 0
	epoch := 0
	var edgeStack [][2]int
	var blocks [][]int

	popBlock := func(u, w int) {
		var block []int
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			if stamp[e[0]] != epoch {
				stamp[e[0]] = epoch
				block = append(block, e[0])
			}
			if stamp[e[1]] != epoch {
				stamp[e[1]] = epoch
				block = append(block, e[1])
			}
			if e[0] == u && e[1] == w || e[0] == w && e[1] == u {
				break
			}
		}
		sort.Ints(block)
		blocks = append(blocks, block)
		epoch++
	}

	type frame struct {
		v, childIdx int
	}
	for s := 0; s < n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{v: s}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			v := f.v
			row := g.adj[v]
			if f.childIdx < len(row) {
				w := int(row[f.childIdx])
				f.childIdx++
				if w == parent[v] {
					continue
				}
				if disc[w] != -1 {
					if disc[w] < disc[v] { // back edge
						edgeStack = append(edgeStack, [2]int{v, w})
						if disc[w] < low[v] {
							low[v] = disc[w]
						}
					}
					continue
				}
				parent[w] = v
				edgeStack = append(edgeStack, [2]int{v, w})
				disc[w] = timer
				low[w] = timer
				timer++
				stack = append(stack, frame{v: w})
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[v]; p != -1 {
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] >= disc[p] {
					popBlock(p, v)
				}
			}
		}
	}
	return blocks
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
