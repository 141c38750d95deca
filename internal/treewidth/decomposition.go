// Package treewidth implements the tree-decomposition subsystem: the
// decomposition data structure with a full validity checker, elimination
// heuristics (min-fill, min-degree) for arbitrary sizes, an exact
// branch-and-bound solver for small graphs, conversion to nice
// decompositions with a Courcelle-style dynamic program, and the tw-mso
// certification scheme whose per-vertex certificates carry the vertex's
// home bag — the distributed-decomposition shape of the meta-theorems for
// MSO on bounded-treewidth graphs (Cook–Kim–Masařík, arXiv:2503.19671;
// Fraigniaud et al., arXiv:2112.03195) that the paper's tree-like classes
// point at.
//
// Every long-running entry point takes a context and returns a
// *fault.CancelledError once it is done (MinFillCtx, MinDegreeCtx,
// HeuristicCtx, ExactCtx, MakeNiceCtx, SolveEMSOCtx, BuildPayloadsCtx);
// there are no context-free twins. The tw-mso prover asks
// one question — a width-<=T decomposition of g — through one slot,
// MSOScheme.Decomps (a DecompSource): a generator's witness wrapped in
// DecompFunc, or a shared decomposition cache. Whatever the source
// returns is validated and, when missing or too wide, replaced by the
// heuristics and then exact search.
package treewidth

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Decomposition is a tree decomposition: a set of bags (vertex subsets)
// connected by tree edges. Bag entries are vertex indices of the graph the
// decomposition belongs to, sorted strictly increasing; Adj is the
// adjacency of the decomposition tree over bag indices.
type Decomposition struct {
	Bags [][]int
	Adj  [][]int
}

// NumBags returns the number of bags.
func (d *Decomposition) NumBags() int { return len(d.Bags) }

// Width returns the decomposition's width: max bag size - 1 (-1 when the
// decomposition has no bags).
func (d *Decomposition) Width() int {
	w := -1
	for _, b := range d.Bags {
		if len(b)-1 > w {
			w = len(b) - 1
		}
	}
	return w
}

// NumTreeEdges counts the decomposition tree's edges.
func (d *Decomposition) NumTreeEdges() int {
	m := 0
	for _, nbrs := range d.Adj {
		m += len(nbrs)
	}
	return m / 2
}

// Clone returns a deep copy.
func (d *Decomposition) Clone() *Decomposition {
	out := &Decomposition{
		Bags: make([][]int, len(d.Bags)),
		Adj:  make([][]int, len(d.Adj)),
	}
	for i, b := range d.Bags {
		out.Bags[i] = append([]int(nil), b...)
	}
	for i, a := range d.Adj {
		out.Adj[i] = append([]int(nil), a...)
	}
	return out
}

// BagContains reports whether bag b contains vertex v (bags are sorted).
func (d *Decomposition) BagContains(b, v int) bool {
	bag := d.Bags[b]
	i := sort.SearchInts(bag, v)
	return i < len(bag) && bag[i] == v
}

// Validate checks that d is a valid tree decomposition of g and returns a
// descriptive error for the first violated invariant:
//
//  1. structure: at least one bag, Adj matching Bags, symmetric, loop-free,
//     duplicate-free, and a tree (connected with NumBags-1 edges);
//  2. bags: entries in range, strictly increasing (sorted, distinct);
//  3. vertex coverage: every vertex of g appears in some bag;
//  4. edge coverage: every edge of g has both endpoints in some bag;
//  5. connectivity of bag traces: for every vertex, the bags containing it
//     induce a connected subtree.
func Validate(g *graph.Graph, d *Decomposition) error {
	var cp fault.Checkpoint // zero value: never cancels
	return validateCp(&cp, g, d)
}

// validateCp is Validate probing cp once per bag, vertex and edge: the
// prover validates every decomposition it is handed, which takes about
// 0.3s at n=10⁵, longer than the 250ms a disconnected client may keep a
// worker busy. It returns the checkpoint's *fault.CancelledError.
//
//certlint:longrun
func validateCp(cp *fault.Checkpoint, g *graph.Graph, d *Decomposition) error {
	if d == nil || len(d.Bags) == 0 {
		return fmt.Errorf("treewidth: decomposition has no bags")
	}
	nb := len(d.Bags)
	if len(d.Adj) != nb {
		return fmt.Errorf("treewidth: %d adjacency lists for %d bags", len(d.Adj), nb)
	}
	// Structure: symmetry, ranges, no loops or duplicate tree edges.
	edges := 0
	for b, nbrs := range d.Adj {
		if err := cp.Check(); err != nil {
			return err
		}
		seen := make(map[int]bool, len(nbrs))
		for _, c := range nbrs {
			if c < 0 || c >= nb {
				return fmt.Errorf("treewidth: bag %d has tree neighbour %d out of range", b, c)
			}
			if c == b {
				return fmt.Errorf("treewidth: bag %d has a self-loop", b)
			}
			if seen[c] {
				return fmt.Errorf("treewidth: duplicate tree edge (%d,%d)", b, c)
			}
			seen[c] = true
			found := false
			for _, back := range d.Adj[c] {
				if back == b {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("treewidth: tree edge (%d,%d) is not symmetric", b, c)
			}
			edges++
		}
	}
	edges /= 2
	if edges != nb-1 {
		return fmt.Errorf("treewidth: decomposition tree has %d edges for %d bags (want %d)", edges, nb, nb-1)
	}
	if !treeConnected(d.Adj) {
		return fmt.Errorf("treewidth: decomposition tree is disconnected")
	}
	// Bags sorted, distinct, in range; build per-vertex traces.
	n := g.N()
	traces := make([][]int, n)
	for b, bag := range d.Bags {
		if err := cp.Check(); err != nil {
			return err
		}
		for i, v := range bag {
			if v < 0 || v >= n {
				return fmt.Errorf("treewidth: bag %d entry %d out of range [0,%d)", b, v, n)
			}
			if i > 0 && bag[i-1] >= v {
				return fmt.Errorf("treewidth: bag %d is not strictly increasing at position %d", b, i)
			}
			traces[v] = append(traces[v], b)
		}
	}
	// Vertex coverage.
	for v := 0; v < n; v++ {
		if err := cp.Check(); err != nil {
			return err
		}
		if len(traces[v]) == 0 {
			return fmt.Errorf("treewidth: vertex %d is in no bag", v)
		}
	}
	// Edge coverage: intersect the (sorted) traces of the endpoints.
	for _, e := range g.Edges() {
		if err := cp.Check(); err != nil {
			return err
		}
		if !sortedIntersect(traces[e[0]], traces[e[1]]) {
			return fmt.Errorf("treewidth: edge (%d,%d) is covered by no bag", e[0], e[1])
		}
	}
	// Trace connectivity: BFS inside each trace.
	inTrace := make([]bool, nb)
	for v := 0; v < n; v++ {
		if err := cp.Check(); err != nil {
			return err
		}
		for _, b := range traces[v] {
			inTrace[b] = true
		}
		reached := traceReach(d.Adj, traces[v][0], inTrace)
		for _, b := range traces[v] {
			inTrace[b] = false // reset for the next vertex
		}
		if reached != len(traces[v]) {
			return fmt.Errorf("treewidth: trace of vertex %d is disconnected (%d of %d bags reachable)",
				v, reached, len(traces[v]))
		}
	}
	return nil
}

// IsValid reports whether d is a valid tree decomposition of g; see
// Validate for the diagnostic form.
func IsValid(g *graph.Graph, d *Decomposition) bool { return Validate(g, d) == nil }

// treeConnected reports whether the adjacency describes a connected graph.
func treeConnected(adj [][]int) bool {
	if len(adj) == 0 {
		return false
	}
	seen := make([]bool, len(adj))
	stack := []int{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, c := range adj[b] {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return count == len(adj)
}

// traceReach counts the bags of the trace (marked in member) reachable
// from start without leaving the trace.
func traceReach(adj [][]int, start int, member []bool) int {
	seen := map[int]bool{start: true}
	stack := []int{start}
	count := 0
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, c := range adj[b] {
			if member[c] && !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return count
}

// sortedIntersect reports whether two ascending int slices share an entry.
func sortedIntersect(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// Rooted orients the decomposition tree at the given root bag and returns
// the parent (root gets -1) and depth of every bag plus a top-down BFS
// order. It assumes the tree structure is valid (see Validate).
func (d *Decomposition) Rooted(root int) (parent, depth, order []int, err error) {
	nb := len(d.Bags)
	if root < 0 || root >= nb {
		return nil, nil, nil, fmt.Errorf("treewidth: root bag %d out of range [0,%d)", root, nb)
	}
	parent = make([]int, nb)
	depth = make([]int, nb)
	for b := range parent {
		parent[b] = -2
	}
	parent[root] = -1
	order = make([]int, 0, nb)
	order = append(order, root)
	for head := 0; head < len(order); head++ {
		b := order[head]
		for _, c := range d.Adj[b] {
			if parent[c] == -2 {
				parent[c] = b
				depth[c] = depth[b] + 1
				order = append(order, c)
			}
		}
	}
	if len(order) != nb {
		return nil, nil, nil, fmt.Errorf("treewidth: decomposition tree is disconnected")
	}
	return parent, depth, order, nil
}

// HomeBags assigns each vertex its home bag under the rooting described by
// depth: the root of the vertex's trace, i.e. the unique minimum-depth bag
// containing it (unique because traces of a valid decomposition are
// connected subtrees).
func (d *Decomposition) HomeBags(n int, depth []int) ([]int, error) {
	home := make([]int, n)
	for v := range home {
		home[v] = -1
	}
	for b, bag := range d.Bags {
		for _, v := range bag {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("treewidth: bag %d entry %d out of range [0,%d)", b, v, n)
			}
			if home[v] == -1 || depth[b] < depth[home[v]] {
				home[v] = b
			}
		}
	}
	for v, h := range home {
		if h == -1 {
			return nil, fmt.Errorf("treewidth: vertex %d is in no bag", v)
		}
	}
	return home, nil
}

// fromEliminationOrder builds the tree decomposition induced by an
// elimination order (a permutation of the vertices): eliminating order[i]
// creates the bag {order[i]} ∪ its neighbours in the fill-in graph among
// later vertices, linked by linkEliminationBags. The replay runs on the
// bitset engine with fill-in counting off — it only reads bags. Its one
// caller, ExactCtx, never exceeds ExactLimit vertices, well inside the
// bitset engine's range.
func fromEliminationOrder(g *graph.Graph, order []int) *Decomposition {
	st := newElimBits(g, false)
	bags := make([][]int, len(order))
	nbrs := make([]int, 0, len(order))
	for i, v := range order {
		bags[i] = st.bagOf(v)
		nbrs, _ = st.eliminate(v, nbrs)
	}
	return linkEliminationBags(order, bags)
}

// linkEliminationBags assembles elimination bags (bags[i] is the bag of
// order[i]: the vertex plus its not-yet-eliminated neighbours at
// elimination time) into a decomposition: each bag attaches to the bag of
// its earliest-eliminated later member, or to the next bag in order when
// it has none, which keeps the tree connected even for disconnected
// inputs. order is a permutation of 0..n-1, so positions live in a
// dense slice.
func linkEliminationBags(order []int, bags [][]int) *Decomposition {
	n := len(order)
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	d := &Decomposition{Bags: bags, Adj: make([][]int, n)}
	for i, v := range order {
		first := -1
		for _, w := range bags[i] {
			if w != v && (first == -1 || pos[w] < first) {
				first = pos[w]
			}
		}
		if first == -1 && i+1 < n {
			first = i + 1
		}
		if first != -1 {
			d.Adj[i] = append(d.Adj[i], first)
			d.Adj[first] = append(d.Adj[first], i)
		}
	}
	return d
}

// FromKTree builds the canonical width-k decomposition of a (partial)
// k-tree from its construction record: attach[v] is the k-clique vertex v
// was attached to (nil for the k+1 seed vertices; see graphgen.KTree).
// The bags are the seed clique plus {v} ∪ attach[v] per attached vertex,
// and each bag hangs off the bag of the youngest vertex in its clique.
func FromKTree(n, k int, attach [][]int) (*Decomposition, error) {
	if k < 1 || n < k+1 {
		return nil, fmt.Errorf("treewidth: k-tree needs k >= 1 and n >= k+1, got n=%d k=%d", n, k)
	}
	if len(attach) != n {
		return nil, fmt.Errorf("treewidth: attachment record has %d entries for %d vertices", len(attach), n)
	}
	d := &Decomposition{
		Bags: make([][]int, n-k),
		Adj:  make([][]int, n-k),
	}
	seed := make([]int, k+1)
	for i := range seed {
		seed[i] = i
	}
	d.Bags[0] = seed
	for v := k + 1; v < n; v++ {
		clique := attach[v]
		if len(clique) != k {
			return nil, fmt.Errorf("treewidth: vertex %d attached to a %d-clique, want %d", v, len(clique), k)
		}
		bag := append([]int{v}, clique...)
		sort.Ints(bag)
		b := v - k
		d.Bags[b] = bag
		// Parent: the bag introducing the youngest clique member, or the
		// seed bag when the whole clique lies in the seed.
		youngest := clique[0]
		for _, u := range clique {
			if u > youngest {
				youngest = u
			}
			if u < 0 || u >= v {
				return nil, fmt.Errorf("treewidth: vertex %d attached to not-yet-built vertex %d", v, u)
			}
		}
		parent := 0
		if youngest > k {
			parent = youngest - k
		}
		d.Adj[b] = append(d.Adj[b], parent)
		d.Adj[parent] = append(d.Adj[parent], b)
	}
	return d, nil
}
