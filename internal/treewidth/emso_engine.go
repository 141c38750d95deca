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
//     shared across nodes, decompositions and solver runs; a table's
//     cliques come from the clique-tuple walk (cliqueTuples) that Verify
//     and the witness re-check use;
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

// introGroup is one clique of an introduce node's configuration: the bag
// positions of its points, the introduced one first, and the table of
// their word combinations (m bits per point, in pos order) under which
// every var-tuple over exactly these points satisfies the matrix.
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

// buildIntroTables evaluates the matrix once per (clique, word
// combination) of the configuration: n bag positions, introduced position
// pos, adjacency among positions given by adj. Its cliques are the ones
// the witness re-check walks around pos, every clique through pos once,
// and each clique's table answers "do all var-tuples over exactly these
// points satisfy the matrix under these memberships" with one bit probe.
// A valid matrix has no tuple to fail and gets no groups.
func buildIntroTables(phi *EMSO, n, pos int, adj func(i, j int) bool) *introTables {
	tb := &introTables{}
	if phi.valid {
		return tb
	}
	var w centredWalk
	ct := w.layout(phi, n, pos, adj)
	pts := w.pts
	m := len(phi.Sets)
	var clq [MaxEMSOVars]int // the clique being tabled: its first k points
	k, combo := 0, 0
	ct.adj = func(a, b int) bool { return a != b && (a == 0 || b == 0 || adj(pts[a], pts[b])) }
	ct.member = func(set, p int) bool {
		return combo>>uint(m*slices.Index(clq[:k], p)+set)&1 == 1
	}
	ct.eachClique(func(kk, p0, p1, p2 int) bool {
		k, clq = kk, [MaxEMSOVars]int{p0, p1, p2}
		g := introGroup{pos: make([]int, k), ok: make([]uint64, (1<<uint(m*k)+63)/64)}
		for i := range g.pos {
			g.pos[i] = pts[clq[i]]
		}
		for combo = 0; combo < 1<<uint(m*k); combo++ {
			if ct.clique(k, p0, p1, p2) {
				g.ok[combo>>6] |= 1 << uint(combo&63)
			}
		}
		tb.groups = append(tb.groups, g)
		return true
	})
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
	// The DP guarantees the checks below; assert them, so that a bug in the
	// table packing (the group positions and combination bits admits
	// reads), the memo (a key that misses a pair the table reads), the
	// bottom-up pass or the traceback cannot leak a bogus witness. The
	// cliques come from the walk the tables were built from, but the
	// matrix is evaluated on the witness words themselves. Checking the
	// introduce nodes alone covers every constrained tuple: a violating
	// tuple is a clique (clique-locality), every clique is contained in
	// some nice bag, and the bottom-most such bag is an introduce node
	// whose introduced vertex belongs to the clique (its child bag is one
	// vertex short).
	var wc centredWalk
	for i := range nice.Nodes {
		nd := &nice.Nodes[i]
		if nd.Kind != KindIntroduce {
			continue
		}
		if !wc.witnessOK(g, phi, nd.Bag, nd.Vertex, out) {
			return nil, false, fmt.Errorf("treewidth: EMSO DP produced a witness violating the matrix in bag %v", nd.Bag)
		}
	}
	return out, true, nil
}

// centredWalk lays out the points of a clique walk centred on one bag
// position: the centre first (point 0), then every position adjacent to
// it in bag order, which together hold every clique through the centre.
// Out-lists, read only by three-variable matrices, list each edge among
// those positions once, from the point earlier in the bag. The witness
// re-check and the transition tables both walk through it; its buffers
// are reused from layout to layout.
type centredWalk struct {
	pts        []int // the bag position of each point
	start, out []int32
}

// layout lays the walk out around position pos of an n-position bag
// whose adjacency adj reports, reading only pairs through pos for two
// variables and no pair for one, and returns the centred clique-tuple
// check over it, still without its oracles.
func (w *centredWalk) layout(phi *EMSO, n, pos int, adj func(i, j int) bool) cliqueTuples {
	r := len(phi.Vars)
	w.pts = append(w.pts[:0], pos)
	if r >= 2 {
		for p := 0; p < n; p++ {
			if p != pos && adj(pos, p) {
				w.pts = append(w.pts, p)
			}
		}
	}
	if r >= 3 {
		w.start = append(w.start[:0], 0, 0)
		w.out = w.out[:0]
		for i := 1; i < len(w.pts); i++ {
			for j := i + 1; j < len(w.pts); j++ {
				if adj(w.pts[i], w.pts[j]) {
					w.out = append(w.out, int32(j))
				}
			}
			w.start = append(w.start, int32(len(w.out)))
		}
	}
	return cliqueTuples{phi: phi, n: len(w.pts), start: w.start, out: w.out, centred: true}
}

// witnessOK reports whether every clique tuple through the introduced
// vertex x of bag satisfies the matrix under words. A valid matrix passes
// at once, with nothing probed.
func (w *centredWalk) witnessOK(g *graph.Graph, phi *EMSO, bag []int, x int, words []uint8) bool {
	if phi.valid {
		return true
	}
	ct := w.layout(phi, len(bag), sort.SearchInts(bag, x), func(i, j int) bool { return g.HasEdge(bag[i], bag[j]) })
	pts := w.pts
	ct.adj = func(a, b int) bool {
		return a != b && (a == 0 || b == 0 || g.HasEdge(bag[pts[a]], bag[pts[b]]))
	}
	ct.member = func(set, p int) bool { return words[bag[pts[p]]]>>uint(set)&1 == 1 }
	return ct.allTuplesOK()
}

// tablesFor returns the memoized transition tables of an introduce node,
// building them on first sight of the node's configuration.
func (sv *emsoSolver) tablesFor(bag []int, pos int) *introTables {
	// The configuration's key: bag size and introduced position, two
	// bytes each, then the adjacency bits of exactly the bag pairs the
	// walk around pos reads (see pairBit). Bags can be arbitrarily large
	// when the sentence has no set variables (the state count stays 1
	// regardless of width, so the MaxDPStates bound never trips), so a
	// wide bag's key outgrows the stack buffer.
	n, r := len(bag), len(sv.phi.Vars)
	pairs := 0
	switch {
	case r == 2:
		pairs = n - 1
	case r > 2:
		pairs = n * (n - 1) / 2
	}
	var small [40]byte
	var key []byte
	if need := 4 + (pairs+7)/8; need <= len(small) {
		key = small[:need]
	} else {
		key = make([]byte, need)
	}
	key[0], key[1], key[2], key[3] = byte(n), byte(n>>8), byte(pos), byte(pos>>8)
	if pairs > 0 {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if b := pairBit(r, n, pos, i, j); b >= 0 && sv.g.HasEdge(bag[i], bag[j]) {
					key[4+b/8] |= 1 << uint(b%8)
				}
			}
		}
	}
	phi := sv.phi
	phi.introMu.RLock()
	tb := phi.intro[string(key)]
	phi.introMu.RUnlock()
	if tb != nil {
		return tb
	}
	// The build's adjacency reads the miss path's own copy of the key, so
	// the lookup above stays on the stack.
	k := string(key)
	tb = buildIntroTables(phi, n, pos, func(i, j int) bool {
		b := pairBit(r, n, pos, i, j)
		return b >= 0 && k[4+b/8]>>uint(b%8)&1 == 1
	})
	phi.introMu.Lock()
	if prev := phi.intro[k]; prev != nil {
		tb = prev // a concurrent solver won the build; share its tables
	} else {
		if phi.intro == nil {
			phi.intro = map[string]*introTables{}
		}
		if len(phi.intro) >= maxIntroMemoEntries {
			for old := range phi.intro {
				delete(phi.intro, old)
				break
			}
		}
		phi.intro[k] = tb
	}
	phi.introMu.Unlock()
	return tb
}

// pairBit is the key bit of bag pair (i,j) in an n-position configuration
// with introduced position pos and r variables, or -1 for a pair the
// walk around pos never reads: none for one variable, the pairs through
// pos for two, every pair (in i<j order) for three.
func pairBit(r, n, pos, i, j int) int {
	if i > j {
		i, j = j, i
	}
	switch {
	case r > 2:
		// Pair (i,j) sits at offset sum of the first i row lengths plus
		// (j-i-1): rows have n-1, n-2, ... entries.
		return i*(2*n-i-1)/2 + (j - i - 1)
	case r == 2 && i == pos:
		return j - 1
	case r == 2 && j == pos:
		return i
	}
	return -1
}

// maxIntroMemoEntries bounds the per-sentence transition-table memo:
// configurations are graph-controlled (every distinct bag adjacency
// pattern is a fresh key), so a long-lived server solving hostile graphs
// would otherwise grow the memo monotonically. On overflow an arbitrary
// entry is evicted, mirroring the engine's decomposition cache; solvers
// already holding a table keep their pointer and later runs recompute.
const maxIntroMemoEntries = 4096

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
