package treewidth

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/fault"
	"repro/internal/graph"
)

// elimSparse is the sparse working state of the elimination heuristics:
// neighbour sets as sorted int32 slices over one flat backing array,
// plus incrementally maintained degrees and, for min-fill only, the
// same fill-in counts as the dense bitset engine (elimBits). Where the
// bitset engine pays n²/8 bytes and word-scans per row — unbeatable on
// small dense graphs, unpayable at n=10⁶ — this engine pays O(n+m)
// memory and per-round work proportional to the eliminated
// neighbourhood, which is what makes million-vertex partial k-trees
// decomposable.
//
// The count maintenance mirrors elimBits.eliminate line for line (same
// pair order, same update formulas, same before/after-insert timing), so
// the two engines produce bit-identical degree and fill values — the
// differential tests pin identical elimination orders on every graph
// where both run.
type elimSparse struct {
	n     int
	nbr   [][]int32 // sorted live (fill-in) neighbour lists
	alive []bool
	deg   []int
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
	// can refresh exactly those heap entries.
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
	// exact capacities: removals shrink in place, the first insertion
	// into a row reallocates just that row.
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

// diffCountSorted returns |a \ b| for two ascending slices.
//
//certlint:hotpath
func diffCountSorted(a, b []int32) int {
	c, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			c++
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return c + len(a) - i
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

// removeSorted32 removes x from ascending slice a (x must be present).
//
//certlint:hotpath
func removeSorted32(a []int32, x int32) []int32 {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(a[lo:], a[lo+1:])
	return a[:len(a)-1]
}

// touch marks v's score as possibly changed in the current epoch.
func (st *elimSparse) touch(v int32) {
	if st.stamp[v] != st.epoch {
		st.stamp[v] = st.epoch
		st.touched = append(st.touched, v)
	}
}

// bagOf returns v's elimination bag at the current state: the vertex
// plus its remaining neighbours, sorted (the list is sorted already, so
// this is one merge-position insert).
func (st *elimSparse) bagOf(v int) []int {
	row := st.nbr[v]
	bag := make([]int, 0, len(row)+1)
	placed := false
	for _, w := range row {
		if !placed && int(w) > v {
			bag = append(bag, v)
			placed = true
		}
		bag = append(bag, int(w))
	}
	if !placed {
		bag = append(bag, v)
	}
	return bag
}

// eliminate removes v, cliquing its remaining neighbours and keeping
// every degree (and, with counts on, every fill-in count) exact — the
// same arithmetic as elimBits.eliminate, on sorted slices — and
// collecting the touched vertices for the selection heap. It returns
// v's degree at elimination time.
//
//certlint:hotpath
func (st *elimSparse) eliminate(v int) int {
	nbrs := st.nbr[v]
	d := len(nbrs)
	st.touched = st.touched[:0]
	st.epoch++
	// Add the missing fill edges among N(v), updating counts as each
	// edge lands so later pairs see the current adjacency (see
	// elimBits.eliminate for the counting argument).
	for i := 0; i < d; i++ {
		a := nbrs[i]
		for j := i + 1; j < d; j++ {
			b := nbrs[j]
			if containsSorted(st.nbr[a], b) {
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
	// Detach v: each neighbour loses the pairs {v, y} with y a neighbour
	// it shares with nobody — exactly its neighbours outside N(v) ∪ {v}.
	for _, w := range nbrs {
		if st.counts {
			st.fill[w] -= diffCountSorted(st.nbr[w], nbrs) - 1
		}
		st.touch(w)
		st.nbr[w] = removeSorted32(st.nbr[w], int32(v))
		st.deg[w]--
	}
	st.nbr[v] = nil
	st.alive[v] = false
	st.left--
	return d
}

// countFillEdge updates the fill-in counts for the fill edge {a, b},
// about to be added while eliminating v: every live common neighbour
// of a and b loses the pair from its missing set, and each endpoint
// gains a missing pair per neighbour the other endpoint lacks.
//
//certlint:hotpath
func (st *elimSparse) countFillEdge(v int, a, b int32) {
	aRow, bRow := st.nbr[a], st.nbr[b]
	ai, bi := 0, 0
	for ai < len(aRow) && bi < len(bRow) {
		switch {
		case aRow[ai] < bRow[bi]:
			ai++
		case aRow[ai] > bRow[bi]:
			bi++
		default:
			if x := aRow[ai]; int(x) != v {
				st.fill[x]--
				st.touch(x)
			}
			ai++
			bi++
		}
	}
	st.fill[a] += diffCountSorted(aRow, bRow)
	st.fill[b] += diffCountSorted(bRow, aRow)
}

// scoreEntry is one lazy-heap entry: a vertex and the score it carried
// when pushed. Entries whose score no longer matches the live value are
// discarded on pop; ordering is (score, vertex), which reproduces the
// dense engine's smallest-score-lowest-index selection exactly.
type scoreEntry struct {
	score int64
	v     int32
}

// scoreHeap is a binary min-heap of scoreEntry with lazy invalidation.
type scoreHeap []scoreEntry

func (h scoreHeap) less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].v < h[j].v
}

func (h *scoreHeap) push(e scoreEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h).less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *scoreHeap) pop() scoreEntry {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && (*h).less(l, s) {
			s = l
		}
		if r < last && (*h).less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		(*h)[i], (*h)[s] = (*h)[s], (*h)[i]
		i = s
	}
	return top
}

// cmpScoreEntry orders heap entries by (score, vertex), the order
// scoreHeap.less uses.
func cmpScoreEntry(a, b scoreEntry) int {
	if c := cmp.Compare(a.score, b.score); c != 0 {
		return c
	}
	return cmp.Compare(a.v, b.v)
}

// runHeuristicSparse is the sparse counterpart of runHeuristic: the same
// greedy elimination (smallest score wins, lowest index breaks ties),
// with selection through the lazy min-heap instead of an O(n) scan per
// round, and bags recorded during the single elimination pass. Fill-in
// counts are maintained only when the score reads them (min-fill).
func runHeuristicSparse(ctx context.Context, g *graph.Graph, score heuristicScore) (*Decomposition, []int, int, error) {
	return runSparse(ctx, g, score, false)
}

// runSparse is runHeuristicSparse with the fill-in gate exposed to the
// tests: forceCounts maintains the counts under min-degree too, which
// must leave the elimination order untouched.
//
//certlint:longrun
func runSparse(ctx context.Context, g *graph.Graph, score heuristicScore, forceCounts bool) (*Decomposition, []int, int, error) {
	cp := fault.NewCheckpoint(ctx, "decompose")
	st, err := newElimSparseCp(&cp, g, forceCounts || score == scoreFill)
	if err != nil {
		return nil, nil, 0, err
	}
	n := st.n
	vals := st.deg
	if score == scoreFill {
		vals = st.fill
	}
	h := make(scoreHeap, 0, n+n/2)
	for v := 0; v < n; v++ {
		if err := cp.Check(); err != nil {
			return nil, nil, 0, err
		}
		h = append(h, scoreEntry{score: int64(vals[v]), v: int32(v)})
	}
	// A sorted array is a valid heap; (score, vertex) keys are distinct,
	// so the result does not depend on the sort's stability.
	slices.SortFunc(h, cmpScoreEntry)
	order := make([]int, 0, n)
	bags := make([][]int, 0, n)
	width := 0
	for st.left > 0 {
		if err := cp.Check(); err != nil {
			return nil, nil, 0, err
		}
		e := h.pop()
		v := int(e.v)
		if !st.alive[v] || int64(vals[v]) != e.score {
			continue // stale entry; the live score was re-pushed when it changed
		}
		order = append(order, v)
		bags = append(bags, st.bagOf(v))
		if d := st.eliminate(v); d > width {
			width = d
		}
		for _, t := range st.touched {
			if st.alive[t] {
				h.push(scoreEntry{score: int64(vals[t]), v: t})
			}
		}
	}
	return linkEliminationBags(order, bags), order, width, nil
}
