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
	"slices"
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

// validateCp is Validate probing cp once per bag, tree edge, vertex and
// graph edge, so a prover handed a decomposition by a client that has
// since gone stops validating within one checkpoint stride. It returns
// the checkpoint's *fault.CancelledError. Validation takes about 50ms at
// n=10⁵ and runs in O(bags·width + m·log width):
//
//   - structure: a stamp array catches duplicate tree entries; there
//     must be exactly 2(nb-1) directed entries, and a BFS from bag 0 must
//     reach every bag with every entry joining a bag to its BFS parent or
//     child. Every bag then lists its parent once and each child once,
//     and the entry count leaves room for nothing else, so Adj is a
//     symmetric tree;
//   - traces: one pass over the bags checks their entries and records
//     each vertex's trace size (the number of bags containing it) and
//     trace root (the shallowest such bag in the BFS rooting);
//   - trace connectivity: the bags of a trace S induce a forest of the
//     tree, which is connected iff exactly |S|-1 tree edges lie inside S.
//     One merge of the two sorted bags of each tree edge counts, for
//     every vertex, the tree edges inside its trace;
//   - edge coverage, once traces are known to be connected subtrees: u
//     and w share a bag iff the deeper of their trace roots contains the
//     other endpoint (a shared bag lies below both roots, so the two
//     roots lie on one root path, and the subtree of the shallower one
//     contains the path down to the shared bag) — one binary search per
//     edge.
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
	// Structure: ranges, loops and duplicates through a stamp per bag
	// (stamp[c] == b+1 once bag b listed c), then the entry count.
	stamp := make([]int32, nb)
	entries := 0
	for b, nbrs := range d.Adj {
		if err := cp.Check(); err != nil {
			return err
		}
		for _, c := range nbrs {
			if c < 0 || c >= nb {
				return fmt.Errorf("treewidth: bag %d has tree neighbour %d out of range", b, c)
			}
			if c == b {
				return fmt.Errorf("treewidth: bag %d has a self-loop", b)
			}
			if stamp[c] == int32(b+1) {
				return fmt.Errorf("treewidth: duplicate tree edge (%d,%d)", b, c)
			}
			stamp[c] = int32(b + 1)
		}
		entries += len(nbrs)
	}
	if entries != 2*(nb-1) {
		return fmt.Errorf("treewidth: decomposition tree has %d directed entries for %d bags (want %d)", entries, nb, 2*(nb-1))
	}
	// BFS from bag 0: every entry must be the bag's parent or a bag not
	// reached yet, which becomes its child.
	reached := stamp // reused: the loop above left every stamp >= 0
	parent := make([]int32, nb)
	depth := make([]int32, nb)
	order := make([]int32, 1, nb)
	reached[0] = -1
	for head := 0; head < len(order); head++ {
		if err := cp.Check(); err != nil {
			return err
		}
		b := int(order[head])
		for _, c := range d.Adj[b] {
			switch {
			case b != 0 && c == int(parent[b]):
			case reached[c] >= 0:
				reached[c] = -1
				parent[c] = int32(b)
				depth[c] = depth[b] + 1
				order = append(order, int32(c))
			default:
				return fmt.Errorf("treewidth: tree edge (%d,%d) closes a cycle or is not symmetric", b, c)
			}
		}
	}
	if len(order) != nb {
		return fmt.Errorf("treewidth: decomposition tree is disconnected (%d of %d bags reachable from bag 0)", len(order), nb)
	}
	// Bags sorted, distinct, in range; trace sizes and roots. comps[v]
	// starts as |S_v| and loses one per tree edge inside S_v below, which
	// leaves the number of connected pieces of the trace.
	n := g.N()
	comps := make([]int32, n)
	root := make([]int32, n)
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
			if comps[v] == 0 || depth[b] < depth[root[v]] {
				root[v] = int32(b)
			}
			comps[v]++
		}
	}
	// Trace connectivity: merge each tree edge's two bags once.
	for _, c := range order[1:] {
		if err := cp.Check(); err != nil {
			return err
		}
		x, y := d.Bags[c], d.Bags[parent[c]]
		for i, j := 0, 0; i < len(x) && j < len(y); {
			switch {
			case x[i] < y[j]:
				i++
			case x[i] > y[j]:
				j++
			default:
				comps[x[i]]--
				i++
				j++
			}
		}
	}
	for v := 0; v < n; v++ {
		if err := cp.Check(); err != nil {
			return err
		}
		switch {
		case comps[v] == 0:
			return fmt.Errorf("treewidth: vertex %d is in no bag", v)
		case comps[v] > 1:
			return fmt.Errorf("treewidth: trace of vertex %d is disconnected (%d pieces)", v, comps[v])
		}
	}
	// Edge coverage by the trace-root rule.
	for u := 0; u < n; u++ {
		if err := cp.Check(); err != nil {
			return err
		}
		for _, w32 := range g.Neighbors(u) {
			w := int(w32)
			if w < u {
				continue
			}
			b, other := root[u], w
			if depth[root[w]] > depth[b] {
				b, other = root[w], u
			}
			if _, found := slices.BinarySearch(d.Bags[b], other); !found {
				return fmt.Errorf("treewidth: edge (%d,%d) is covered by no bag", u, w)
			}
		}
	}
	return nil
}

// IsValid reports whether d is a valid tree decomposition of g; see
// Validate for the diagnostic form.
func IsValid(g *graph.Graph, d *Decomposition) bool { return Validate(g, d) == nil }

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
