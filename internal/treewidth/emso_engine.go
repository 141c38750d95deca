package treewidth

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
// the hot path behind every tw-mso certify/batch/simulate request whose
// matrix is not valid (a valid one, tw-bound's, holds under every witness,
// and MSOScheme's prover skips the DP for it). The map-based original
// survives as solveEMSOReference (reference_test.go); a differential
// property test keeps the two verdict- and witness-identical.
//
// The engine differs from the reference in mechanics only:
//
//   - one pass over the nice nodes in index order (MakeNiceCtx stores
//     them children-first) instead of recursive closures, with state sets
//     held in sorted []uint64 slices: join is a linear merge-intersect,
//     forget is a project+sort+dedup, introduce appends and sorts. Each
//     node reads the position of its vertex from the node (NiceNode.Pos)
//     instead of searching its bag, and reaches its children's tables
//     through one int32 slot per node: a table list, presized from the
//     forget-node count, holds every forget table and the few others
//     still waiting for their parent;
//   - the matrix is not evaluated at all: it was tabled once per clique
//     size and word combination when the sentence compiled (the clique
//     table, EMSO.cliques), and each introduce node's transition table
//     is the list of its cliques through the introduced position, so a
//     child state costs one table read per clique, which answers for
//     all 2^m words the introduced vertex may take. The list is built at
//     every introduce node, in the run's pooled scratch, by walking the
//     graph's adjacency among the bag vertices with the centred walk
//     (centredWalk over cliqueTuples) that Verify and the witness
//     re-check use, and all of them read the same table; the compiled
//     sentence holds nothing a graph can grow. A valid matrix admits
//     every state, so it builds no list and skips the witness re-check,
//     for the callers that still run the DP on one;
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

// introGroup is one clique of an introduce node's configuration through
// the introduced position: the positions of its other k−1 points in the
// child bag (the bag without the introduced vertex).
type introGroup struct {
	k   int
	pos [MaxEMSOVars - 1]int
}

// introTables is the full transition table of one introduce node
// (centredWalk.introCliques builds it): its cliques through the
// introduced position, read against the sentence's clique table. A child
// state admits an introduced word iff the table holds at every group's
// word combination; tuples outside the groups are either clique tuples
// not involving the introduced position (checked at their own introduce
// nodes) or non-clique tuples (vacuously true by the compile-time
// clique-locality check).
type introTables struct {
	cliques *cliqueTable
	groups  []introGroup
}

// admitted returns the introduced words child state cs admits, bit w for
// word w. A group's combination holds the introduced word at bits
// 0..m−1 and its other points' words, read from cs, above them, so the
// table bits of all 2^m introduced words are consecutive in one table
// word (2^m divides 64): one shift per group.
func (tb *introTables) admitted(cs uint64, m int) uint64 {
	ok := uint64(1)<<(1<<m) - 1
	for gi := range tb.groups {
		g := &tb.groups[gi]
		var w uint64
		for i, p := range g.pos[:g.k-1] {
			w |= wordAt(cs, p, m) << uint(m*(i+1))
		}
		ok &= tb.cliques[g.k-1][w>>6] >> (w & 63)
	}
	return ok
}

// emsoScratch is the recycled working memory of one solver run: state
// buffers, the table list, the forget-table arenas, the clique walk and
// the traceback stack. A run checks one scratch out of the pool, so
// concurrent solves never share buffers.
type emsoScratch struct {
	freeStates [][]uint64
	// slot maps each nice node to the entry of tables holding its state
	// table. The list holds every forget node's table with its
	// predecessor words, which the traceback reads, and the tables of
	// other nodes still waiting for their parent: a consumed child's
	// entry goes on free and is reused, a forget node's never is.
	slot   []int32
	tables []emsoTable
	free   []int32
	// forget and forgetPreds are the arenas every forget node's state
	// table and predecessor words are cut from: the traceback reads them
	// after the bottom-up pass, so they never go back to freeStates. A
	// run refills the newest blocks from the start; a block that runs
	// out is replaced (tables already cut keep the old one alive).
	forget      []uint64
	forgetPreds []uint8
	stack       []emsoFrame
	// walk lays out every introduce node's cliques, for its transition
	// table in the bottom-up pass and for the witness re-check after it.
	walk centredWalk
}

// emsoTable is one entry of the table list: a node's sorted states and,
// for a forget node, the predecessor word of each.
type emsoTable struct {
	states []uint64
	preds  []uint8
}

type emsoFrame struct {
	t int32
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

// keep gives node t's table an entry of the list: a fresh one for a
// forget node's, a consumed child's when one is free for any other.
func (sc *emsoScratch) keep(t int, forget bool, tb emsoTable) {
	if n := len(sc.free); !forget && n > 0 {
		sc.slot[t] = sc.free[n-1]
		sc.free = sc.free[:n-1]
		sc.tables[sc.slot[t]] = tb
		return
	}
	sc.slot[t] = int32(len(sc.tables))
	sc.tables = append(sc.tables, tb)
}

// release recycles the tables still waiting for a parent and hands the
// scratch back to the pool. Forget tables, the entries with predecessor
// words, are arena-backed and only dropped (an empty one may have nil
// words, but then it has no capacity to recycle either).
func (sc *emsoScratch) release() {
	for _, tb := range sc.tables {
		if tb.preds == nil {
			sc.putStates(tb.states)
		}
	}
	clear(sc.tables)
	sc.tables, sc.free = sc.tables[:0], sc.free[:0]
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
	if cap(sc.slot) < len(nice.Nodes) {
		sc.slot = make([]int32, len(nice.Nodes))
	}
	// Every slot is written before it is read: children come first.
	sc.slot = sc.slot[:len(nice.Nodes)]
	if n := nice.forgets + nice.waiting; cap(sc.tables) < n {
		sc.tables = make([]emsoTable, 0, n)
	}
	sc.forget, sc.forgetPreds = sc.forget[:0], sc.forgetPreds[:0]
	sv := &emsoSolver{g: g, nice: nice, phi: phi, m: m, sc: sc,
		cp: fault.NewCheckpoint(ctx, "prove")}
	defer sc.release()
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
	// state packing (the group positions and word bits admitted reads), the
	// bottom-up pass or the traceback cannot leak a bogus witness. The
	// cliques come from the walk the tables were built from, over the
	// graph's own adjacency, and the clique table is read at the witness
	// words themselves. Checking the introduce nodes alone covers every
	// constrained tuple: a violating tuple is a clique (clique-locality),
	// every clique is contained in some nice bag, and the bottom-most such
	// bag is an introduce node whose introduced vertex belongs to the
	// clique (its child bag is one vertex short). A valid matrix constrains
	// no tuple.
	if phi.valid {
		return out, true, nil
	}
	for t := range nice.Nodes {
		nd := &nice.Nodes[t]
		if nd.Kind == KindIntroduce && !sc.walk.witnessOK(g, phi, nice.Bag(t), int(nd.Pos), out) {
			return nil, false, fmt.Errorf("treewidth: EMSO DP produced a witness violating the matrix in bag %v", nice.Bag(t))
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
	words      []uint64     // the witness re-check's word of each point
	groups     []introGroup // the transition table's cliques
	ct         cliqueTuples // the check layout returns
}

// layout lays the walk out around position pos of bag, reading the
// graph's adjacency among the bag's vertices (only pairs through pos for
// two variables, no pair for one), and returns the centred clique-tuple
// check over it, still without its points' words. The check lives in the
// walk, so no caller copies it, and lasts until the next layout.
func (w *centredWalk) layout(g *graph.Graph, phi *EMSO, bag []int32, pos int) *cliqueTuples {
	r := len(phi.Vars)
	w.pts = append(w.pts[:0], pos)
	if r >= 2 {
		for p, v := range bag {
			if p != pos && g.HasEdge(int(bag[pos]), int(v)) {
				w.pts = append(w.pts, p)
			}
		}
	}
	if r >= 3 {
		w.start = append(w.start[:0], 0, 0)
		w.out = w.out[:0]
		for i := 1; i < len(w.pts); i++ {
			for j := i + 1; j < len(w.pts); j++ {
				if g.HasEdge(int(bag[w.pts[i]]), int(bag[w.pts[j]])) {
					w.out = append(w.out, int32(j))
				}
			}
			w.start = append(w.start, int32(len(w.out)))
		}
	}
	// Field by field: a composite literal is built on the stack and
	// copied in whole.
	ct := &w.ct
	ct.phi, ct.n, ct.start, ct.out, ct.centred = phi, len(w.pts), w.start, w.out, true
	ct.words, ct.probes = nil, 0
	return ct
}

// witnessOK reports whether every clique tuple through position pos of
// bag satisfies the matrix under words. A valid matrix passes at once,
// with nothing probed.
func (w *centredWalk) witnessOK(g *graph.Graph, phi *EMSO, bag []int32, pos int, words []uint8) bool {
	if phi.valid {
		return true
	}
	ct := w.layout(g, phi, bag, pos)
	if phi.NumSets() > 0 {
		w.words = w.words[:0]
		for _, p := range w.pts {
			w.words = append(w.words, uint64(words[bag[p]]))
		}
		ct.words = w.words
	}
	return ct.allTuplesOK()
}

// introCliques builds the transition table of the introduce node that
// brings in position pos of bag: the cliques through pos that the witness
// re-check walks, each once, kept as its other points' child-bag
// positions in the walk's buffers, so the table lasts until the next
// layout. Nothing is evaluated; admitted reads the sentence's clique
// table. A valid matrix has no tuple to fail and gets no groups.
func (w *centredWalk) introCliques(g *graph.Graph, phi *EMSO, bag []int32, pos int) introTables {
	w.groups = w.groups[:0]
	if !phi.valid {
		ct := w.layout(g, phi, bag, pos)
		ct.eachClique(func(k, _, p1, p2 int) bool {
			gr := introGroup{k: k}
			others := [MaxEMSOVars - 1]int{p1, p2}
			for i, p := range others[:k-1] {
				gr.pos[i] = w.pts[p]
				if gr.pos[i] > pos {
					gr.pos[i]-- // the child bag lacks the introduced position
				}
			}
			w.groups = append(w.groups, gr)
			return true
		})
	}
	return introTables{cliques: &phi.cliques, groups: w.groups}
}

// up runs the bottom-up pass in node index order — a post-order, since
// MakeNiceCtx stores children first — giving each node's sorted state
// table an entry of sc.tables, with its predecessor words at a forget
// node. It reports whether the root accepts; an empty state set anywhere
// short-circuits to false (all four node transitions preserve emptiness
// upward).
//
//certlint:hotpath
func (sv *emsoSolver) up() (bool, error) {
	sc, m := sv.sc, sv.m
	for t := range sv.nice.Nodes {
		if err := sv.cp.Check(); err != nil {
			return false, err
		}
		node := &sv.nice.Nodes[t]
		var tb emsoTable
		switch node.Kind {
		case KindLeaf:
			tb.states = append(sc.getStates(), 0)
		case KindIntroduce:
			c, pos := node.Child[0], int(node.Pos)
			admit := sc.walk.introCliques(sv.g, sv.phi, sv.nice.Bag(t), pos)
			out := sc.getStates()
			for _, cs := range sc.tables[sc.slot[c]].states {
				ok := admit.admitted(cs, m)
				for w := uint64(0); ok != 0; w, ok = w+1, ok>>1 {
					if ok&1 == 1 {
						out = append(out, expandWord(cs, pos, m, w))
					}
				}
			}
			slices.Sort(out)
			tb.states = out
			sv.releaseChild(c)
		case KindForget:
			c, pos := node.Child[0], int(node.Pos)
			buf := sc.getStates()
			for _, cs := range sc.tables[sc.slot[c]].states {
				buf = append(buf, forgetWord(cs, pos, m)<<emsoWordShift|wordAt(cs, pos, m))
			}
			slices.Sort(buf)
			if cap(sc.forget)-len(sc.forget) < len(buf) {
				// A fresh block: at least one entry per forget node,
				// which holds every forget table of a set-free sentence.
				block := max(len(buf), 2*cap(sc.forget), sv.nice.forgets)
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
			tb = emsoTable{states: sc.forget[lo:hi:hi], preds: sc.forgetPreds[lo:hi:hi]}
			sv.releaseChild(c)
		case KindJoin:
			l, r := node.Child[0], node.Child[1]
			left, right := sc.tables[sc.slot[l]].states, sc.tables[sc.slot[r]].states
			out := sc.getStates()
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
			tb.states = out
			sv.releaseChild(l)
			sv.releaseChild(r)
		default:
			return false, errUnknownNodeKind
		}
		sc.keep(t, node.Kind == KindForget, tb)
		if len(tb.states) == 0 {
			return false, nil
		}
	}
	root := sc.tables[sc.slot[sv.nice.Root]].states
	return len(root) > 0 && root[0] == 0, nil
}

// releaseChild recycles a consumed child's table and list entry. Forget
// tables are kept: the traceback binary-searches them to index the
// predecessor words.
func (sv *emsoSolver) releaseChild(c int32) {
	if sv.nice.Nodes[c].Kind == KindForget {
		return
	}
	sc := sv.sc
	e := sc.slot[c]
	sc.putStates(sc.tables[e].states)
	sc.tables[e].states = nil
	sc.free = append(sc.free, e)
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
	sc.stack = append(sc.stack[:0], emsoFrame{t: int32(sv.nice.Root)})
	for len(sc.stack) > 0 {
		f := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		node := &sv.nice.Nodes[f.t]
		switch node.Kind {
		case KindLeaf:
		case KindIntroduce:
			pos := int(node.Pos)
			if words[node.Vertex] == -1 {
				words[node.Vertex] = int16(wordAt(f.s, pos, m))
			}
			sc.stack = append(sc.stack, emsoFrame{t: node.Child[0], s: forgetWord(f.s, pos, m)})
		case KindForget:
			tb := &sc.tables[sc.slot[f.t]]
			idx, found := slices.BinarySearch(tb.states, f.s)
			if !found {
				return nil, sv.stuck(f.t)
			}
			cs := expandWord(f.s, int(node.Pos), m, uint64(tb.preds[idx]))
			sc.stack = append(sc.stack, emsoFrame{t: node.Child[0], s: cs})
		case KindJoin:
			sc.stack = append(sc.stack,
				emsoFrame{t: node.Child[0], s: f.s},
				emsoFrame{t: node.Child[1], s: f.s})
		default:
			return nil, sv.stuck(f.t)
		}
	}
	return words, nil
}

// stuck reports that the traceback could not go on below node t.
func (sv *emsoSolver) stuck(t int32) error {
	bag := sv.nice.Bag(int(t))
	e := &TracebackError{Node: int(t), Kind: sv.nice.Nodes[t].Kind, Bag: make([]int, len(bag))}
	for i, v := range bag {
		e.Bag[i] = int(v)
	}
	return e
}
