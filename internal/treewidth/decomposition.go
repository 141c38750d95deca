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
// Every elimination appends its order and bags to one decomposition
// builder (decompBuilder), which lays the tree out once. Above
// blockSplitThreshold vertices HeuristicCtx splits the graph into its
// biconnected blocks and decomposes them one after another into one
// builder; no decomposition starts a goroutine.
//
// Every long-running entry point takes a context and returns a
// *fault.CancelledError once it is done (MinFillCtx, MinDegreeCtx,
// HeuristicCtx, ExactCtx, MakeNiceCtx, SolveEMSOCtx); there are no
// context-free twins. The tw-mso prover asks one question — a width-<=T
// decomposition of g — through one slot, MSOScheme.Decomps (a
// DecompSource): a generator's witness wrapped in DecompFunc, or a shared
// decomposition cache. A missing or too-wide answer is replaced by the
// heuristics and then exact search. Whichever decomposition the prover
// keeps is validated exactly once, and validation is also its rooting:
// the BFS parents, order and home bags it computes feed the nice
// conversion and the certificates, so nothing roots the tree again.
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
	_, err := validateCp(&cp, g, d)
	return err
}

// rooting is a decomposition tree oriented at one bag.
type rooting struct {
	// parent and depth are per bag; parent is -1 at the root.
	parent, depth []int32
	// order lists the bags top-down by BFS: each bag's children are
	// consecutive, in Adj order.
	order []int32
	// home is each vertex's home bag, the root of its trace; only
	// validateCp sets it.
	home []int32
}

// rootCp checks that d's tree structure is a tree and roots it at the
// given bag, probing cp once per bag. A stamp array catches out-of-range,
// self-loop and duplicate tree entries; there must be exactly 2(nb-1)
// directed entries, and a BFS from the root must reach every bag with
// every entry joining a bag to its BFS parent or child. Every bag then
// lists its parent once and each child once, and the entry count leaves
// room for nothing else, so Adj is a symmetric tree.
//
//certlint:longrun
func rootCp(cp *fault.Checkpoint, d *Decomposition, root int) (rooting, error) {
	if d == nil || len(d.Bags) == 0 {
		return rooting{}, fmt.Errorf("treewidth: decomposition has no bags")
	}
	nb := len(d.Bags)
	if len(d.Adj) != nb {
		return rooting{}, fmt.Errorf("treewidth: %d adjacency lists for %d bags", len(d.Adj), nb)
	}
	if root < 0 || root >= nb {
		return rooting{}, fmt.Errorf("treewidth: root bag %d out of range [0,%d)", root, nb)
	}
	// Ranges, loops and duplicates through a stamp per bag (stamp[c] ==
	// b+1 once bag b listed c), then the entry count.
	stamp := make([]int32, nb)
	entries := 0
	for b, nbrs := range d.Adj {
		if err := cp.Check(); err != nil {
			return rooting{}, err
		}
		for _, c := range nbrs {
			if c < 0 || c >= nb {
				return rooting{}, fmt.Errorf("treewidth: bag %d has tree neighbour %d out of range", b, c)
			}
			if c == b {
				return rooting{}, fmt.Errorf("treewidth: bag %d has a self-loop", b)
			}
			if stamp[c] == int32(b+1) {
				return rooting{}, fmt.Errorf("treewidth: duplicate tree edge (%d,%d)", b, c)
			}
			stamp[c] = int32(b + 1)
		}
		entries += len(nbrs)
	}
	if entries != 2*(nb-1) {
		return rooting{}, fmt.Errorf("treewidth: decomposition tree has %d directed entries for %d bags (want %d)", entries, nb, 2*(nb-1))
	}
	// BFS from the root: every entry must be the bag's parent or a bag not
	// reached yet, which becomes its child.
	reached := stamp // reused: the loop above left every stamp >= 0
	r := rooting{parent: make([]int32, nb), depth: make([]int32, nb), order: make([]int32, 1, nb)}
	r.parent[root], r.order[0], reached[root] = -1, int32(root), -1
	for head := 0; head < len(r.order); head++ {
		if err := cp.Check(); err != nil {
			return rooting{}, err
		}
		b := int(r.order[head])
		for _, c := range d.Adj[b] {
			switch {
			case c == int(r.parent[b]):
			case reached[c] >= 0:
				reached[c] = -1
				r.parent[c] = int32(b)
				r.depth[c] = r.depth[b] + 1
				r.order = append(r.order, int32(c))
			default:
				return rooting{}, fmt.Errorf("treewidth: tree edge (%d,%d) closes a cycle or is not symmetric", b, c)
			}
		}
	}
	if len(r.order) != nb {
		return rooting{}, fmt.Errorf("treewidth: decomposition tree is disconnected (%d of %d bags reachable from bag %d)", len(r.order), nb, root)
	}
	return r, nil
}

// validateCp is Validate probing cp once per bag, tree edge, vertex and
// graph edge, so a prover handed a decomposition by a client that has
// since gone stops validating within one checkpoint stride. It returns
// the checkpoint's *fault.CancelledError, or on success the rooting at
// bag 0 with every vertex's home bag set. Validation takes about 50ms at
// n=10⁵ and runs in O(bags·width + m·log width):
//
//   - structure: rootCp;
//   - traces: one pass over the bags checks their entries and records
//     each vertex's trace size (the number of bags containing it) and
//     trace root (the shallowest such bag in the rooting);
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
func validateCp(cp *fault.Checkpoint, g *graph.Graph, d *Decomposition) (rooting, error) {
	r, err := rootCp(cp, d, 0)
	if err != nil {
		return rooting{}, err
	}
	// Bags sorted, distinct, in range; trace sizes and roots. comps[v]
	// starts as |S_v| and loses one per tree edge inside S_v below, which
	// leaves the number of connected pieces of the trace.
	n := g.N()
	comps := make([]int32, n)
	home, depth := make([]int32, n), r.depth
	for b, bag := range d.Bags {
		if err := cp.Check(); err != nil {
			return rooting{}, err
		}
		for i, v := range bag {
			if v < 0 || v >= n {
				return rooting{}, fmt.Errorf("treewidth: bag %d entry %d out of range [0,%d)", b, v, n)
			}
			if i > 0 && bag[i-1] >= v {
				return rooting{}, fmt.Errorf("treewidth: bag %d is not strictly increasing at position %d", b, i)
			}
			if comps[v] == 0 || depth[b] < depth[home[v]] {
				home[v] = int32(b)
			}
			comps[v]++
		}
	}
	// Trace connectivity: merge each tree edge's two bags once.
	for _, c := range r.order[1:] {
		if err := cp.Check(); err != nil {
			return rooting{}, err
		}
		x, y := d.Bags[c], d.Bags[r.parent[c]]
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
			return rooting{}, err
		}
		switch {
		case comps[v] == 0:
			return rooting{}, fmt.Errorf("treewidth: vertex %d is in no bag", v)
		case comps[v] > 1:
			return rooting{}, fmt.Errorf("treewidth: trace of vertex %d is disconnected (%d pieces)", v, comps[v])
		}
	}
	// Edge coverage by the trace-root rule.
	for u := 0; u < n; u++ {
		if err := cp.Check(); err != nil {
			return rooting{}, err
		}
		for _, w32 := range g.Neighbors(u) {
			w := int(w32)
			if w < u {
				continue
			}
			b, other := home[u], w
			if depth[home[w]] > depth[b] {
				b, other = home[w], u
			}
			if _, found := slices.BinarySearch(d.Bags[b], other); !found {
				return rooting{}, fmt.Errorf("treewidth: edge (%d,%d) is covered by no bag", u, w)
			}
		}
	}
	r.home = home
	return r, nil
}

// IsValid reports whether d is a valid tree decomposition of g; see
// Validate for the diagnostic form.
func IsValid(g *graph.Graph, d *Decomposition) bool { return Validate(g, d) == nil }

// fromEliminationOrder builds the tree decomposition induced by an
// elimination order (a permutation of the vertices): eliminating order[i]
// creates the bag {order[i]} ∪ its neighbours in the fill-in graph among
// later vertices, linked as decompBuilder.link links any run. The replay
// runs on the bitset engine with fill-in counting off — it only reads
// bags. Its one caller, ExactCtx, never exceeds ExactLimit vertices, well
// inside the bitset engine's range.
func fromEliminationOrder(g *graph.Graph, order []int) *Decomposition {
	n := g.N()
	b := newDecompBuilder(n, g.M())
	st := newElimBits(g, false)
	nbrs := make([]int, 0, n)
	for _, v := range order {
		b.closeBag(v, appendMembers(b.newBag(st.deg[v]+1), st.row(v)))
		nbrs, _ = st.eliminate(v, nbrs)
	}
	b.link(0, n, make([]int32, n))
	return b.finish()
}

// decompBuilder assembles one Decomposition from elimination runs. Every
// run (a heuristic engine's, or ExactCtx's replay) appends its order and
// its bags end to end, bag i belonging to order[i]; the bag entries are
// cut from a few large chunks, so a bag costs no allocation of its own.
// Tree edges go into one list in creation order, and finish lays the
// tree rows out once from a degree count, so every row lists its edges
// in the order they were made.
type decompBuilder struct {
	order []int32 // the eliminated vertex of each bag, in its run's indices
	bags  [][]int
	verts []int // the chunk the next bags are cut from
	chunk int   // the size of every chunk after the first
	edges []int32
}

// newDecompBuilder sizes a builder for the given number of bags, to be
// eliminated from a graph with the given number of edges. A tree over
// bags bags has bags-1 edges. A bag holds its vertex and its edges to
// later neighbours, original or fill, so the first chunk takes one entry
// per bag and per edge plus a quarter of the bags for fill edges, and
// every later chunk an eighth of that.
func newDecompBuilder(bags, edges int) *decompBuilder {
	entries := bags + edges + bags/4
	return &decompBuilder{
		order: make([]int32, 0, bags),
		bags:  make([][]int, 0, bags),
		verts: make([]int, 0, entries),
		chunk: max(entries/8, 64),
		edges: make([]int32, 0, 2*max(bags-1, 0)),
	}
}

// newBag returns room for a bag of k entries, empty, for closeBag.
func (b *decompBuilder) newBag(k int) []int {
	if cap(b.verts)-len(b.verts) < k {
		b.verts = make([]int, 0, max(k, b.chunk))
	}
	return b.verts[len(b.verts) : len(b.verts) : len(b.verts)+k]
}

// closeBag ends v's bag: bag holds v's remaining neighbours, ascending,
// and v goes in at its sorted place.
func (b *decompBuilder) closeBag(v int, bag []int) {
	bag = append(bag, v)
	for i := len(bag) - 1; i > 0 && bag[i-1] > v; i-- {
		bag[i], bag[i-1] = bag[i-1], v
	}
	b.verts = b.verts[:len(b.verts)+len(bag)]
	b.bags = append(b.bags, bag)
	b.order = append(b.order, int32(v))
}

// link records the elimination tree of the run in bags [lo, hi), whose
// order entries are the vertices 0..hi-lo-1: each bag attaches to the bag
// of its earliest-eliminated later member, or to the next bag when it has
// none, which keeps the tree connected even for a disconnected input.
// pos is scratch of at least hi-lo entries.
func (b *decompBuilder) link(lo, hi int, pos []int32) {
	for i := lo; i < hi; i++ {
		pos[b.order[i]] = int32(i)
	}
	for i := lo; i < hi; i++ {
		first := int32(-1)
		for _, w := range b.bags[i] {
			// Every member but the bag's own vertex is eliminated later.
			if p := pos[w]; p > int32(i) && (first == -1 || p < first) {
				first = p
			}
		}
		if first == -1 && i+1 < hi {
			first = int32(i + 1)
		}
		if first != -1 {
			b.edges = append(b.edges, int32(i), first)
		}
	}
}

// finish lays every tree row out in one array: a degree count, prefix
// sums, then the edges in creation order. Rows are capacity-clipped, as
// bags are, so appending to one never writes into the next; a bag
// without tree edges keeps a nil row. It consumes the builder.
func (b *decompBuilder) finish() *Decomposition {
	nb := len(b.bags)
	d := &Decomposition{Bags: b.bags, Adj: make([][]int, nb)}
	// end[i+1] counts bag i's degree, the prefix sums make end[i] where
	// row i starts, and placing each edge advances it to where row i ends.
	end := make([]int32, nb+1)
	for _, x := range b.edges {
		end[x+1]++
	}
	for i := 1; i <= nb; i++ {
		end[i] += end[i-1]
	}
	flat := make([]int, len(b.edges))
	for k := 0; k < len(b.edges); k += 2 {
		x, y := b.edges[k], b.edges[k+1]
		flat[end[x]], flat[end[y]] = int(y), int(x)
		end[x]++
		end[y]++
	}
	start := int32(0)
	for i, e := range end[:nb] {
		if e > start {
			d.Adj[i] = flat[start:e:e]
		}
		start = e
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
