package graph

import "sort"

// The functions below are the straightforward slice-adjacency
// realizations of the traversals and of Tarjan's low-link algorithms.
// They are the references the differential tests pin the production
// versions against; nothing outside tests calls them.

// bfsFromRef is the reference for BFSFrom.
func (g *Graph) bfsFromRef(src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.N() {
		return dist
	}
	dist[src] = 0
	queue := make([]int, 0, g.N())
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if v := int(w); dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// componentsRef is the reference for Components.
func (g *Graph) componentsRef() [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, w := range g.adj[u] {
				if v := int(w); !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// articulationPointsRef is the reference for ArticulationPoints.
func (g *Graph) articulationPointsRef() []int {
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
			if f.childIdx < len(g.adj[v]) {
				w := int(g.adj[v][f.childIdx])
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

// biconnectedComponentsRef is the reference for BiconnectedComponents:
// the same DFS, with a per-block membership map instead of epoch stamps.
func (g *Graph) biconnectedComponentsRef() [][]int {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0
	var edgeStack [][2]int
	var blocks [][]int

	popBlock := func(u, w int) {
		seen := map[int]bool{}
		for len(edgeStack) > 0 {
			e := edgeStack[len(edgeStack)-1]
			edgeStack = edgeStack[:len(edgeStack)-1]
			seen[e[0]] = true
			seen[e[1]] = true
			if e[0] == u && e[1] == w || e[0] == w && e[1] == u {
				break
			}
		}
		block := make([]int, 0, len(seen))
		for v := range seen {
			block = append(block, v)
		}
		sort.Ints(block)
		blocks = append(blocks, block)
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
			if f.childIdx < len(g.adj[v]) {
				w := int(g.adj[v][f.childIdx])
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
