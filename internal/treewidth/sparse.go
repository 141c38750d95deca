package treewidth

import (
	"context"

	"repro/internal/fault"
	"repro/internal/graph"
)

// elimSparse is the sparse working state of the elimination heuristics:
// neighbour sets as sorted int32 rows over one flat backing array, plus
// incrementally maintained degrees and, for min-fill only, the same
// fill-in counts as the dense bitset engine (elimBits). Where the bitset
// engine pays n²/8 bytes and word-scans per row — unbeatable on small
// dense graphs, unpayable at n=10⁶ — this engine pays O(n+m) memory and
// per-round work proportional to the eliminated neighbourhood, which is
// what makes million-vertex partial k-trees decomposable.
//
// Rows stay ascending but may hold dead entries: eliminating v marks it
// dead instead of deleting it from every neighbour's row, which at a hub
// cost one memmove of the hub's row per eliminated neighbour, Θ(deg²) in
// all. deg counts a row's live entries. The row of the vertex being
// eliminated is compacted before its bag and fill edges are read off it;
// every other read (the adjacency probe, the common-neighbour merges)
// can match live entries only (see eliminate and countFillEdge). A row is
// compacted in place as soon as its dead entries outnumber its live ones
// (len > 2·deg), so it never holds more than 2·deg entries, and each
// compaction is paid for by the removals that left its dead entries.
//
// The count maintenance mirrors elimBits.eliminate (same pair order,
// same before/after-insert timing, and the same counts, read off live
// degrees and common neighbours where elimBits diffs rows), so the two
// engines produce bit-identical degree and fill values — the
// differential tests pin identical elimination orders on every graph
// where both run.
type elimSparse struct {
	n     int
	nbr   [][]int32 // ascending (fill-in) neighbour rows, dead entries included
	alive []bool
	deg   []int // live entries per row
	fill  []int // nil unless counts
	// counts gates the fill-in maintenance, as in elimBits: only
	// min-fill reads fill, and on hub-heavy graphs the initial counts
	// (one sorted intersection per edge, quadratic in hub degree) and
	// the per-fill-edge scans are most of the engine's work. Min-degree
	// runs without them; its scores are degrees, which change only on
	// N(v), so the detach loop's touches still refresh every entry that
	// moved and the order is unchanged.
	counts bool
	left   int
	// touched collects the vertices whose score may have changed during
	// one eliminate call, deduplicated by an epoch stamp, so the driver
	// can move exactly those heap entries.
	touched []int32
	stamp   []int32
	epoch   int32
}

// newElimSparseCp builds the sparse elimination state of g, probing the
// cancellation checkpoint through the setup loops. At n=10⁵ the initial
// fill-in counts that min-fill needs cost most of a second — longer
// than the whole disconnect budget — so setup must be abandonable, not
// just the elimination rounds that follow.
//
//certlint:longrun
func newElimSparseCp(cp *fault.Checkpoint, g *graph.Graph, counts bool) (*elimSparse, error) {
	n := g.N()
	st := &elimSparse{
		n:      n,
		nbr:    make([][]int32, n),
		alive:  make([]bool, n),
		deg:    make([]int, n),
		counts: counts,
		left:   n,
		stamp:  make([]int32, n),
		epoch:  1,
	}
	// Rows copied out of the graph into one flat mutable array with
	// exact capacities: compaction shrinks a row in place, the first
	// insertion into a row reallocates just that row.
	flat := make([]int32, 0, 2*g.M())
	for v := 0; v < n; v++ {
		if err := cp.Check(); err != nil {
			return nil, err
		}
		st.alive[v] = true
		row := g.Neighbors(v)
		st.deg[v] = len(row)
		start := len(flat)
		flat = append(flat, row...)
		st.nbr[v] = flat[start:len(flat):len(flat)]
	}
	if !counts {
		return st, nil
	}
	// Initial fill-in counts, as in elimBits: missing pairs among N(v) =
	// all pairs minus edges inside N(v), via sorted intersections.
	st.fill = make([]int, n)
	for v := 0; v < n; v++ {
		inside := 0
		// The probe sits on the inner loop: per-vertex cost is skewed by
		// orders of magnitude (a hub's count is quadratic in its degree),
		// so an outer-loop stride can sleep through the whole budget.
		for _, w := range st.nbr[v] {
			if err := cp.Check(); err != nil {
				return nil, err
			}
			inside += intersectCountSorted(st.nbr[v], st.nbr[w])
		}
		d := st.deg[v]
		st.fill[v] = d*(d-1)/2 - inside/2
	}
	return st, nil
}

// intersectCountSorted returns |a ∩ b| for two ascending slices.
//
//certlint:hotpath
func intersectCountSorted(a, b []int32) int {
	c, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// containsSorted reports whether ascending slice a contains x.
//
//certlint:hotpath
func containsSorted(a []int32, x int32) bool {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == x
}

// insertSorted32 inserts x into ascending slice a (x must not be present).
//
//certlint:hotpath
func insertSorted32(a []int32, x int32) []int32 {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	a = append(a, 0)
	copy(a[lo+1:], a[lo:])
	a[lo] = x
	return a
}

// touch marks v's score as possibly changed in the current epoch.
func (st *elimSparse) touch(v int32) {
	if st.stamp[v] != st.epoch {
		st.stamp[v] = st.epoch
		st.touched = append(st.touched, v)
	}
}

// live returns v's row without dead entries, compacting it in place
// first if it holds any.
func (st *elimSparse) live(v int) []int32 {
	row := st.nbr[v]
	if len(row) != st.deg[v] {
		row = st.compact(row)
		st.nbr[v] = row
	}
	return row
}

// compact drops the dead entries of row in place and returns the
// shortened row, which keeps its capacity.
//
//certlint:hotpath
func (st *elimSparse) compact(row []int32) []int32 {
	k := 0
	for _, w := range row {
		if st.alive[w] {
			row[k] = w
			k++
		}
	}
	return row[:k]
}

// eliminate removes v, cliquing its remaining neighbours and keeping
// every degree (and, with counts on, every fill-in count) exact — the
// same arithmetic as elimBits.eliminate, on sorted rows — and collecting
// the touched vertices for the selection heap. It returns v's degree at
// elimination time.
//
//certlint:hotpath
func (st *elimSparse) eliminate(v int) int {
	nbrs := st.live(v)
	d := len(nbrs)
	st.touched = st.touched[:0]
	st.epoch++
	// Add the missing fill edges among N(v), updating counts as each
	// edge lands so later pairs see the current adjacency (see
	// elimBits.eliminate for the counting argument). Both endpoints are
	// live, so a dead entry never answers the probe, which searches the
	// shorter of the two rows.
	for i := 0; i < d; i++ {
		a := nbrs[i]
		for j := i + 1; j < d; j++ {
			b := nbrs[j]
			row, x := st.nbr[a], b
			if len(st.nbr[b]) < len(row) {
				row, x = st.nbr[b], a
			}
			if containsSorted(row, x) {
				continue
			}
			if st.counts {
				st.countFillEdge(v, a, b)
			}
			st.nbr[a] = insertSorted32(st.nbr[a], b)
			st.nbr[b] = insertSorted32(st.nbr[b], a)
			st.deg[a]++
			st.deg[b]++
		}
	}
	// Detach v: its entry turns dead in every neighbour's row. Each
	// neighbour w loses the pairs {v, y} with y a neighbour it shares
	// with nobody — exactly its live neighbours outside N(v) ∪ {v}, and
	// deg[w] still counts v. nbrs holds live vertices only, so the
	// intersection ignores w's dead entries.
	st.alive[v] = false
	for _, w := range nbrs {
		row := st.nbr[w]
		if st.counts {
			st.fill[w] -= st.deg[w] - intersectCountSorted(row, nbrs) - 1
		}
		st.touch(w)
		st.deg[w]--
		if len(row) > 2*st.deg[w] {
			st.nbr[w] = st.compact(row)
		}
	}
	st.nbr[v] = nil
	st.left--
	return d
}

// countFillEdge updates the fill-in counts for the fill edge {a, b},
// about to be added while eliminating v: every common neighbour of a and
// b loses the pair from its missing set, and each endpoint gains a
// missing pair per neighbour the other endpoint lacks — its degree minus
// the common neighbours, v among them. The rows' dead entries never
// match: a vertex eliminated while adjacent to both a and b would have
// joined them by a fill edge, and {a, b} is still missing.
//
//certlint:hotpath
func (st *elimSparse) countFillEdge(v int, a, b int32) {
	aRow, bRow := st.nbr[a], st.nbr[b]
	common := 0
	ai, bi := 0, 0
	for ai < len(aRow) && bi < len(bRow) {
		switch {
		case aRow[ai] < bRow[bi]:
			ai++
		case aRow[ai] > bRow[bi]:
			bi++
		default:
			common++
			if x := aRow[ai]; int(x) != v {
				st.fill[x]--
				st.touch(x)
			}
			ai++
			bi++
		}
	}
	st.fill[a] += st.deg[a] - common
	st.fill[b] += st.deg[b] - common
}

// heapEntry is one slot of vertexHeap: a live vertex under its current
// score. Ordering is (score, vertex), which reproduces the dense engine's
// smallest-score-lowest-index selection exactly.
type heapEntry struct {
	score int64
	v     int32
}

func (e heapEntry) less(f heapEntry) bool {
	return e.score < f.score || e.score == f.score && e.v < f.v
}

// vertexHeap is the sparse engine's selection queue: a binary min-heap
// holding every live vertex exactly once under its exact (score, vertex)
// key, with pos locating each vertex's slot so that a score change moves
// the entry in place. Keys are distinct, so the pop sequence depends on
// the keys alone, not on how the heap was laid out. A bucket queue would
// move an entry in O(1), but it cannot keep the lowest-index tie-break
// without an ordered set per bucket.
type vertexHeap struct {
	h   []heapEntry
	pos []int32 // slot of each vertex in h; -1 once popped
}

// newVertexHeapCp heaps every vertex under its score in vals, bottom-up
// in O(n), probing the checkpoint through both setup loops.
//
//certlint:longrun
func newVertexHeapCp(cp *fault.Checkpoint, vals []int) (*vertexHeap, error) {
	n := len(vals)
	q := &vertexHeap{h: make([]heapEntry, n), pos: make([]int32, n)}
	for v := 0; v < n; v++ {
		if err := cp.Check(); err != nil {
			return nil, err
		}
		q.h[v] = heapEntry{score: int64(vals[v]), v: int32(v)}
		q.pos[v] = int32(v)
	}
	for i := n/2 - 1; i >= 0; i-- {
		if err := cp.Check(); err != nil {
			return nil, err
		}
		q.down(i)
	}
	return q, nil
}

// pop removes and returns the vertex with the smallest (score, vertex).
func (q *vertexHeap) pop() int {
	top := q.h[0].v
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.pos[q.h[0].v] = 0
	q.h = q.h[:last]
	q.pos[top] = -1
	if last > 0 {
		q.down(0)
	}
	return int(top)
}

// update moves live vertex v to its new score.
func (q *vertexHeap) update(v int32, score int64) {
	i := int(q.pos[v])
	old := q.h[i].score
	if score == old {
		return
	}
	q.h[i].score = score
	if score < old {
		q.up(i)
	} else {
		q.down(i)
	}
}

// up sifts slot i toward the root.
//
//certlint:hotpath
func (q *vertexHeap) up(i int) {
	e := q.h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(q.h[p]) {
			break
		}
		q.h[i] = q.h[p]
		q.pos[q.h[i].v] = int32(i)
		i = p
	}
	q.h[i] = e
	q.pos[e.v] = int32(i)
}

// down sifts slot i toward the leaves.
//
//certlint:hotpath
func (q *vertexHeap) down(i int) {
	h := q.h
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(e) {
			break
		}
		h[i] = h[c]
		q.pos[h[i].v] = int32(i)
		i = c
	}
	h[i] = e
	q.pos[e.v] = int32(i)
}

// runSparse is the sparse counterpart of runHeuristic: the same greedy
// elimination (smallest score wins, lowest index breaks ties), with
// selection through the indexed min-heap instead of an O(n) scan per
// round, appending the order and the bags to b during the single
// elimination pass. Fill-in counts are maintained only when the score
// reads them (min-fill); forceCounts, for the tests, maintains them under
// min-degree too, which must leave the elimination order untouched.
//
//certlint:longrun
func runSparse(ctx context.Context, g *graph.Graph, score heuristicScore, forceCounts bool, b *decompBuilder) (int, error) {
	cp := fault.NewCheckpoint(ctx, "decompose")
	st, err := newElimSparseCp(&cp, g, forceCounts || score == scoreFill)
	if err != nil {
		return 0, err
	}
	vals := st.deg
	if score == scoreFill {
		vals = st.fill
	}
	q, err := newVertexHeapCp(&cp, vals)
	if err != nil {
		return 0, err
	}
	width := 0
	for st.left > 0 {
		if err := cp.Check(); err != nil {
			return 0, err
		}
		v := q.pop()
		row := st.live(v)
		bag := b.newBag(len(row) + 1)
		for _, w := range row {
			bag = append(bag, int(w))
		}
		b.closeBag(v, bag)
		if d := st.eliminate(v); d > width {
			width = d
		}
		// Every touched vertex is live: v is never its own neighbour.
		for _, t := range st.touched {
			q.update(t, int64(vals[t]))
		}
	}
	return width, nil
}
