package treewidth

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
)

// errUnknownNodeKind is reported by the bottom-up pass on a nice
// decomposition with an out-of-range node kind — unreachable for
// decompositions built by Nicify, and a package-level sentinel so the DP
// loop does not format an error per node.
var errUnknownNodeKind = errors.New("treewidth: unknown nice-decomposition node kind")

// This file is the table-driven realization of the EMSO dynamic program —
// the hot path behind every tw-mso certify/batch/simulate request. The
// map-based original survives as solveEMSOReference (reference_test.go); a
// differential property test keeps the two verdict- and witness-identical.
//
// The engine differs from the reference in mechanics only:
//
//   - one pass over the nice nodes in index order (MakeNiceCtx stores
//     them children-first) instead of recursive closures, with per-node
//     state sets held in sorted []uint64 slices:
//     join is a linear merge-intersect, forget is a project+sort+dedup,
//     introduce appends and sorts;
//   - the matrix is evaluated once per (bag configuration, word
//     combination) instead of once per (state, word) pair: each introduce
//     node's admissible-word transition table depends only on the bag
//     size, the introduced position and the adjacency pattern among the
//     bag vertices, so tables are memoized on the compiled sentence and
//     shared across nodes, decompositions and solver runs;
//   - the traceback stores one predecessor word per forget-node state
//     during the bottom-up pass instead of re-probing child tables, so
//     witness extraction is a walk over binary searches;
//   - all working buffers live in a pooled scratch (sync.Pool) and are
//     recycled across runs; the forget-node tables and predecessor words
//     the traceback reads are cut from two arenas in that scratch.

// TracebackError reports that the EMSO DP's top-down witness extraction
// could not re-derive a child state at a node — an internal invariant
// violation (the bottom-up tables admit no extension of a state they
// produced), not an input error. It carries the node's kind and bag so
// server responses stay diagnosable.
type TracebackError struct {
	// Node is the nice-decomposition node index the traceback stopped at.
	Node int
	// Kind is the node's kind (forget in every reachable scenario).
	Kind NodeKind
	// Bag is the node's bag (graph vertex indices).
	Bag []int
}

func (e *TracebackError) Error() string {
	return fmt.Sprintf("treewidth: EMSO DP traceback stuck at %s node %d (bag %v)", e.Kind, e.Node, e.Bag)
}

// emsoWordShift is the packing shift of the forget pass: a projected state
// and its forgotten membership word share one uint64 (word in the low
// bits), so sorting the packed values groups equal projections and puts
// the smallest forgotten word first — the reference traceback's choice.
const emsoWordShift = MaxEMSOSetVars

// introGroup is one distinct-position set of an introduce node's
// transition table: the clique var-tuples over exactly these bag
// positions are admissible iff the bit of the packed word combination
// (m bits per position, in pos order) is set in ok.
type introGroup struct {
	pos []int
	ok  []uint64
}

// introTables is the full transition table of one introduce-node
// configuration. A state admits the introduced word iff every group
// admits the state's word combination; tuples outside the groups are
// either clique tuples not involving the introduced position (checked at
// their own introduce nodes) or non-clique tuples (vacuously true by the
// compile-time clique-locality check).
type introTables struct {
	groups []introGroup
}

// admits reports whether the packed bag state s passes every group table.
func (tb *introTables) admits(s uint64, m int) bool {
	for gi := range tb.groups {
		g := &tb.groups[gi]
		idx := 0
		for k, p := range g.pos {
			idx |= int(wordAt(s, p, m)) << uint(m*k)
		}
		if g.ok[idx>>6]>>(uint(idx)&63)&1 == 0 {
			return false
		}
	}
	return true
}

// buildIntroTables evaluates the matrix once per (group, word combination)
// of the configuration: bagSize positions, introduced position pos,
// adjacency among positions given by adj. Every clique var-tuple over the
// positions that involves pos is grouped by its distinct-position set;
// each group's table then answers "do all of my tuples satisfy the
// matrix under these memberships" with one bit probe.
func buildIntroTables(phi *EMSO, bagSize, pos int, adj func(i, j int) bool) *introTables {
	r, m := len(phi.Vars), len(phi.Sets)
	type groupAcc struct {
		key    uint64
		pos    []int
		tuples [][]int
	}
	// Groups are keyed by their sorted distinct positions packed 14 bits
	// apiece (r <= 3 distinct positions, each a bag-internal index well
	// under 2^14 for any bag the DP could afford to process).
	accs := map[uint64]*groupAcc{}
	tuple := make([]int, r)
	var rec func(i int, has bool)
	rec = func(i int, has bool) {
		if i == r {
			if !has {
				return
			}
			var dp [MaxEMSOVars]int
			k := 0
			for _, p := range tuple {
				at := 0
				for at < k && dp[at] < p {
					at++
				}
				if at < k && dp[at] == p {
					continue
				}
				copy(dp[at+1:k+1], dp[at:k])
				dp[at] = p
				k++
			}
			key := uint64(0)
			for i := 0; i < k; i++ {
				key = key<<14 | uint64(dp[i]+1)
			}
			ga := accs[key]
			if ga == nil {
				ga = &groupAcc{key: key, pos: append([]int(nil), dp[:k]...)}
				accs[key] = ga
			}
			ga.tuples = append(ga.tuples, slices.Clone(tuple))
			return
		}
	next:
		for p := 0; p < bagSize; p++ {
			for j := 0; j < i; j++ {
				if tuple[j] != p && !adj(tuple[j], p) {
					continue next // non-clique tuple: vacuously true
				}
			}
			tuple[i] = p
			rec(i+1, has || p == pos)
		}
	}
	rec(0, false)
	ordered := make([]*groupAcc, 0, len(accs))
	for _, ga := range accs {
		ordered = append(ordered, ga)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].key < ordered[j].key })
	tb := &introTables{groups: make([]introGroup, 0, len(ordered))}
	for _, ga := range ordered {
		k := len(ga.pos)
		combos := 1 << uint(m*k)
		ok := make([]uint64, (combos+63)/64)
		for combo := 0; combo < combos; combo++ {
			member := func(set, point int) bool {
				for rank, p := range ga.pos {
					if p == point {
						return combo>>uint(m*rank+set)&1 == 1
					}
				}
				return false
			}
			good := true
			for _, tp := range ga.tuples {
				if !phi.EvalTuple(tp, adj, member) {
					good = false
					break
				}
			}
			if good {
				ok[combo>>6] |= 1 << uint(combo&63)
			}
		}
		tb.groups = append(tb.groups, introGroup{pos: ga.pos, ok: ok})
	}
	return tb
}

// emsoScratch is the recycled working memory of one solver run: state
// buffers, the forget-table arenas and the traceback stack. A run checks
// one scratch out of the pool, so concurrent solves never share buffers.
type emsoScratch struct {
	freeStates [][]uint64
	valid      [][]uint64
	preds      [][]uint8
	// forget and forgetPreds are the arenas every forget node's state
	// table and predecessor words are cut from: the traceback reads them
	// after the bottom-up pass, so they never go back to freeStates. A
	// run refills the newest blocks from the start; a block that runs
	// out is replaced (tables already cut keep the old one alive).
	forget      []uint64
	forgetPreds []uint8
	stack       []emsoFrame
}

type emsoFrame struct {
	t int
	s uint64
}

var emsoScratchPool = sync.Pool{New: func() any { return &emsoScratch{} }}

func (sc *emsoScratch) getStates() []uint64 {
	if n := len(sc.freeStates); n > 0 {
		s := sc.freeStates[n-1][:0]
		sc.freeStates = sc.freeStates[:n-1]
		return s
	}
	return nil
}

func (sc *emsoScratch) putStates(s []uint64) {
	if cap(s) > 0 {
		sc.freeStates = append(sc.freeStates, s[:0])
	}
}

// release returns every free-list table still held for nice's nodes to
// the free lists — forget tables are arena-backed and only dropped — and
// hands the scratch back to the pool.
func (sc *emsoScratch) release(nice *Nice) {
	for i, s := range sc.valid {
		if s != nil && nice.Nodes[i].Kind != KindForget {
			sc.putStates(s)
		}
		sc.valid[i] = nil
		sc.preds[i] = nil
	}
	emsoScratchPool.Put(sc)
}

// emsoSolver runs one table-driven solve.
type emsoSolver struct {
	g    *graph.Graph
	nice *Nice
	phi  *EMSO
	m    int
	sc   *emsoScratch
	cp   fault.Checkpoint
}

// SolveEMSOCtx decides whether g satisfies phi by the Courcelle-style
// dynamic program over a nice decomposition and, when it does, extracts
// the per-vertex membership words witnessing the existential set prefix
// by walking the tables back down from the root. It returns (nil, false,
// nil) when phi does not hold and an error when the width is too large
// for the state-table bound. The bottom-up pass checkpoints the context
// once per nice node (amortized), so a cancelled prove at n=10⁶ abandons
// the DP within one stride.
func SolveEMSOCtx(ctx context.Context, g *graph.Graph, nice *Nice, phi *EMSO) ([]uint8, bool, error) {
	m := len(phi.Sets)
	states := 1
	for i := 0; i <= nice.Width(); i++ {
		states *= 1 << uint(m)
		if states > MaxDPStates {
			return nil, false, fmt.Errorf("treewidth: width %d too large for the %d-set EMSO DP (limit %d states)",
				nice.Width(), m, MaxDPStates)
		}
	}
	sc := emsoScratchPool.Get().(*emsoScratch)
	if cap(sc.valid) < len(nice.Nodes) {
		sc.valid = make([][]uint64, len(nice.Nodes))
		sc.preds = make([][]uint8, len(nice.Nodes))
	} else {
		sc.valid = sc.valid[:len(nice.Nodes)]
		sc.preds = sc.preds[:len(nice.Nodes)]
		for i := range sc.valid {
			sc.valid[i] = nil
			sc.preds[i] = nil
		}
	}
	sc.forget, sc.forgetPreds = sc.forget[:0], sc.forgetPreds[:0]
	sv := &emsoSolver{g: g, nice: nice, phi: phi, m: m, sc: sc,
		cp: fault.NewCheckpoint(ctx, "prove")}
	defer sc.release(nice)
	ok, err := sv.up()
	if err != nil || !ok {
		return nil, false, err
	}
	words, err := sv.traceback()
	if err != nil {
		return nil, false, err
	}
	out := make([]uint8, g.N())
	for v, w := range words {
		if w == -1 {
			return nil, false, fmt.Errorf("treewidth: EMSO DP left vertex %d without a membership word", v)
		}
		out[v] = uint8(w)
	}
	// The DP guarantees the checks below; assert them through the shared
	// matrix evaluator — independently of the transition tables — so a
	// table bug cannot leak a bogus witness. Checking the introduce nodes
	// alone covers every constrained tuple: a violating tuple is a clique
	// (clique-locality), every clique is contained in some nice bag, and
	// the bottom-most such bag is an introduce node whose introduced
	// vertex belongs to the clique (its child bag is one vertex short).
	var wc witnessCheck
	for i := range nice.Nodes {
		nd := &nice.Nodes[i]
		if nd.Kind != KindIntroduce {
			continue
		}
		if !wc.ok(g, phi, nd.Bag, nd.Vertex, out) {
			return nil, false, fmt.Errorf("treewidth: EMSO DP produced a witness violating the matrix in bag %v", nd.Bag)
		}
	}
	return out, true, nil
}

// witnessCheck re-checks the DP's witness words at introduce nodes
// through the shared clique-tuple check; its point and out-list buffers
// are reused from node to node.
type witnessCheck struct {
	pts        []int
	start, out []int32
}

// ok reports whether every clique tuple through the introduced vertex x
// satisfies the matrix under words. The points are x (the centre) and
// its neighbours in the bag, which hold every clique through x; their
// out-lists (read only by three-variable matrices) list each edge once,
// from the endpoint earlier in the bag. Nothing is probed for a valid
// matrix, which the check passes at once.
func (wc *witnessCheck) ok(g *graph.Graph, phi *EMSO, bag []int, x int, words []uint8) bool {
	r := len(phi.Vars)
	wc.pts = append(wc.pts[:0], x)
	if r >= 2 && !phi.valid {
		for _, u := range bag {
			if u != x && g.HasEdge(x, u) {
				wc.pts = append(wc.pts, u)
			}
		}
	}
	pts := wc.pts
	if r >= 3 && !phi.valid {
		wc.start = append(wc.start[:0], 0, 0)
		wc.out = wc.out[:0]
		for i := 1; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				if g.HasEdge(pts[i], pts[j]) {
					wc.out = append(wc.out, int32(j))
				}
			}
			wc.start = append(wc.start, int32(len(wc.out)))
		}
	}
	ct := cliqueTuples{
		phi: phi, n: len(pts), start: wc.start, out: wc.out, centred: true,
		adj: func(a, b int) bool {
			return a != b && (a == 0 || b == 0 || g.HasEdge(pts[a], pts[b]))
		},
		member: func(set, p int) bool { return words[pts[p]]>>uint(set)&1 == 1 },
	}
	return ct.allTuplesOK()
}

// tablesFor returns the memoized transition tables of an introduce node,
// building them on first sight of the node's configuration.
func (sv *emsoSolver) tablesFor(bag []int, pos int) *introTables {
	n := len(bag)
	// Pack the configuration: size, introduced position, and the
	// adjacency bits of exactly the bag pairs the table reads. A table
	// only reads pairs inside clique tuples that contain the introduced
	// position: no pair for one variable, the introduced position's row
	// for two, every pair (in i<j order) for three. Bags can be
	// arbitrarily large when the sentence has no set variables (the state
	// count stays 1 regardless of width, so the MaxDPStates bound never
	// trips), so the pair bitmap is sized to the bag.
	r := len(sv.phi.Vars)
	pairs := 0
	switch {
	case r == 2:
		pairs = n - 1
	case r > 2:
		pairs = n * (n - 1) / 2
	}
	// bitOf is the key bit of pair (i,j), or -1 for a pair the table
	// does not read.
	bitOf := func(i, j int) int {
		if i > j {
			i, j = j, i
		}
		switch {
		case r > 2:
			// Pair (i,j) sits at offset sum of the first i row lengths
			// plus (j-i-1): rows have n-1, n-2, ... entries.
			return i*(2*n-i-1)/2 + (j - i - 1)
		case r == 2 && i == pos:
			return j - 1
		case r == 2 && j == pos:
			return i
		}
		return -1
	}
	var small [4]uint64
	adjWords := small[:]
	if words := (pairs + 63) / 64; words > len(adjWords) {
		adjWords = make([]uint64, words)
	}
	if pairs > 0 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if b := bitOf(i, j); b >= 0 && sv.g.HasEdge(bag[i], bag[j]) {
					adjWords[b>>6] |= 1 << uint(b&63)
				}
			}
		}
	}
	phi := sv.phi
	var keyU64 uint64
	var keyStr string
	if pairs <= 52 && n < 32 {
		keyU64 = 1<<63 | uint64(n)<<58 | uint64(pos)<<52 | adjWords[0]
		phi.introMu.RLock()
		tb := phi.introU64[keyU64]
		phi.introMu.RUnlock()
		if tb != nil {
			return tb
		}
	} else {
		// Wide bags (reachable with few or no set variables) fall back to
		// a byte key; the build below dwarfs the allocation anyway.
		raw := make([]byte, 4, 4+8*len(adjWords))
		raw[0], raw[1] = byte(n), byte(n>>8)
		raw[2], raw[3] = byte(pos), byte(pos>>8)
		for _, w := range adjWords {
			for s := 0; s < 64; s += 8 {
				raw = append(raw, byte(w>>uint(s)))
			}
		}
		keyStr = string(raw)
		phi.introMu.RLock()
		tb := phi.introStr[keyStr]
		phi.introMu.RUnlock()
		if tb != nil {
			return tb
		}
	}
	// An unread pair builds as a non-edge: it only prunes tuples that
	// miss the introduced position, which the build discards anyway.
	adj := func(i, j int) bool {
		b := bitOf(i, j)
		return b >= 0 && adjWords[b>>6]>>(uint(b)&63)&1 == 1
	}
	tb := buildIntroTables(phi, n, pos, adj)
	phi.introMu.Lock()
	if keyStr != "" {
		if phi.introStr == nil {
			phi.introStr = map[string]*introTables{}
		}
		if prev := phi.introStr[keyStr]; prev != nil {
			tb = prev // a concurrent solver won the build; share its tables
		} else {
			phi.evictIntroLocked()
			phi.introStr[keyStr] = tb
		}
	} else {
		if phi.introU64 == nil {
			phi.introU64 = map[uint64]*introTables{}
		}
		if prev := phi.introU64[keyU64]; prev != nil {
			tb = prev
		} else {
			phi.evictIntroLocked()
			phi.introU64[keyU64] = tb
		}
	}
	phi.introMu.Unlock()
	return tb
}

// maxIntroMemoEntries bounds the per-sentence transition-table memo:
// configurations are graph-controlled (every distinct bag adjacency
// pattern is a fresh key), so a long-lived server solving hostile graphs
// would otherwise grow the memo monotonically. On overflow an arbitrary
// entry is evicted, mirroring the engine's decomposition cache; solvers
// already holding a table keep their pointer and later runs recompute.
const maxIntroMemoEntries = 4096

// evictIntroLocked drops one arbitrary memo entry when the combined memo
// is full. Callers hold introMu.
func (phi *EMSO) evictIntroLocked() {
	if len(phi.introU64)+len(phi.introStr) < maxIntroMemoEntries {
		return
	}
	for k := range phi.introU64 {
		delete(phi.introU64, k)
		return
	}
	for k := range phi.introStr {
		delete(phi.introStr, k)
		return
	}
}

// up runs the bottom-up pass in node index order — a post-order, since
// MakeNiceCtx stores children first — filling sc.valid (sorted state
// slices) and sc.preds (forget-node predecessor words). It reports
// whether the root accepts; an empty state set anywhere short-circuits
// to false (all four node transitions preserve emptiness upward).
//
//certlint:hotpath
func (sv *emsoSolver) up() (bool, error) {
	sc, m := sv.sc, sv.m
	for t := range sv.nice.Nodes {
		if err := sv.cp.Check(); err != nil {
			return false, err
		}
		node := &sv.nice.Nodes[t]
		var out []uint64
		switch node.Kind {
		case KindLeaf:
			out = append(sc.getStates(), 0)
		case KindIntroduce:
			c := node.Children[0]
			pos := sort.SearchInts(node.Bag, node.Vertex)
			tb := sv.tablesFor(node.Bag, pos)
			nw := uint64(1) << uint(m)
			out = sc.getStates()
			for _, cs := range sc.valid[c] {
				for w := uint64(0); w < nw; w++ {
					s := expandWord(cs, pos, m, w)
					if tb.admits(s, m) {
						out = append(out, s)
					}
				}
			}
			slices.Sort(out)
			sv.releaseChild(c)
		case KindForget:
			c := node.Children[0]
			childBag := sv.nice.Nodes[c].Bag
			pos := sort.SearchInts(childBag, node.Vertex)
			buf := sc.getStates()
			for _, cs := range sc.valid[c] {
				buf = append(buf, forgetWord(cs, pos, m)<<emsoWordShift|wordAt(cs, pos, m))
			}
			slices.Sort(buf)
			if cap(sc.forget)-len(sc.forget) < len(buf) {
				// A fresh block: at least half the node count, which
				// holds every forget table of a set-free sentence.
				block := max(len(buf), 2*cap(sc.forget), len(sv.nice.Nodes)/2)
				sc.forget = make([]uint64, 0, block)
				sc.forgetPreds = make([]uint8, 0, block)
			}
			lo := len(sc.forget)
			prev, first := uint64(0), true
			for _, p := range buf {
				proj := p >> emsoWordShift
				if first || proj != prev {
					sc.forget = append(sc.forget, proj)
					sc.forgetPreds = append(sc.forgetPreds, uint8(p&(1<<emsoWordShift-1)))
					prev, first = proj, false
				}
			}
			sc.putStates(buf)
			hi := len(sc.forget)
			out = sc.forget[lo:hi:hi]
			sc.preds[t] = sc.forgetPreds[lo:hi:hi]
			sv.releaseChild(c)
		case KindJoin:
			l, r := node.Children[0], node.Children[1]
			left, right := sc.valid[l], sc.valid[r]
			out = sc.getStates()
			i, j := 0, 0
			for i < len(left) && j < len(right) {
				switch {
				case left[i] < right[j]:
					i++
				case left[i] > right[j]:
					j++
				default:
					out = append(out, left[i])
					i++
					j++
				}
			}
			sv.releaseChild(l)
			sv.releaseChild(r)
		default:
			return false, errUnknownNodeKind
		}
		sc.valid[t] = out
		if len(out) == 0 {
			return false, nil
		}
	}
	root := sc.valid[sv.nice.Root]
	return len(root) > 0 && root[0] == 0, nil
}

// releaseChild recycles a consumed child table. Forget-node tables are
// kept: the traceback binary-searches them to index the predecessor words.
func (sv *emsoSolver) releaseChild(c int) {
	if sv.nice.Nodes[c].Kind == KindForget {
		return
	}
	sv.sc.putStates(sv.sc.valid[c])
	sv.sc.valid[c] = nil
}

// traceback walks the accepted root state back down, reading the
// membership word of each vertex at its introduce node and re-deriving
// forgotten words from the stored predecessors.
func (sv *emsoSolver) traceback() ([]int16, error) {
	sc, m := sv.sc, sv.m
	words := make([]int16, sv.g.N())
	for i := range words {
		words[i] = -1
	}
	sc.stack = append(sc.stack[:0], emsoFrame{t: sv.nice.Root})
	for len(sc.stack) > 0 {
		f := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		node := &sv.nice.Nodes[f.t]
		switch node.Kind {
		case KindLeaf:
		case KindIntroduce:
			pos := sort.SearchInts(node.Bag, node.Vertex)
			if words[node.Vertex] == -1 {
				words[node.Vertex] = int16(wordAt(f.s, pos, m))
			}
			sc.stack = append(sc.stack, emsoFrame{t: node.Children[0], s: forgetWord(f.s, pos, m)})
		case KindForget:
			states := sc.valid[f.t]
			idx, found := slices.BinarySearch(states, f.s)
			if !found {
				return nil, &TracebackError{Node: f.t, Kind: node.Kind, Bag: node.Bag}
			}
			childBag := sv.nice.Nodes[node.Children[0]].Bag
			pos := sort.SearchInts(childBag, node.Vertex)
			cs := expandWord(f.s, pos, m, uint64(sc.preds[f.t][idx]))
			sc.stack = append(sc.stack, emsoFrame{t: node.Children[0], s: cs})
		case KindJoin:
			sc.stack = append(sc.stack,
				emsoFrame{t: node.Children[0], s: f.s},
				emsoFrame{t: node.Children[1], s: f.s})
		default:
			return nil, &TracebackError{Node: f.t, Kind: node.Kind, Bag: node.Bag}
		}
	}
	return words, nil
}
