package treewidth

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/logic"
)

// This file is the formula front-end of the tw-mso workload: it compiles
// sentences of the existential-MSO fragment
//
//	existsset S1. ... existsset Sm. forall x1. ... forall xr. theta
//
// (theta quantifier-free) into a Courcelle-style dynamic program over nice
// tree decompositions, generalizing the hardcoded c-colorability DP that
// previously backed the scheme. The certified witness is one m-bit
// set-membership word per vertex, and the radius-1 verifier re-checks
// theta on every tuple it can see, so the whole pipeline — compile, DP,
// certificate, verification — is driven by the formula.
//
// The fragment is constrained by what a tree-decomposition DP (and a
// radius-1 verifier) can actually check: theta may only constrain tuples
// whose vertices are pairwise adjacent or equal. Such tuples are cliques,
// every clique is contained in some bag of any valid decomposition, and
// the distinct members of a clique are mutual neighbours, so both the DP
// and the verifier see every constrained tuple in full. CompileEMSO
// enforces this "clique-locality" semantically, by exhausting all small
// worlds: 2-colorability, c-colorability via multiple sets, independent- /
// dominating-set-freeness and triangle-freeness all pass; properties with
// genuinely non-local universal constraints (diameter bounds) are
// rejected with an explanatory error instead of being certified wrongly.

const (
	// MaxEMSOSetVars bounds the existential set prefix: each set costs one
	// bit per bag position in the DP state and one certificate bit.
	MaxEMSOSetVars = 3
	// MaxEMSOVars bounds the universal first-order prefix: the
	// clique-locality check enumerates all r-point worlds, and the
	// clique-tuple walk (cliqueTuples) that the DP's transition tables,
	// its witness re-check and Verify share draws cliques of at most
	// three points.
	MaxEMSOVars = 3
)

// EMSO is a compiled sentence of the fragment; build one with CompileEMSO.
type EMSO struct {
	// Source is the original sentence.
	Source logic.Formula
	// Sets and Vars are the quantifier prefixes, outermost first.
	Sets []logic.SetVar
	Vars []logic.Var
	// Matrix is the quantifier-free part (implications retained).
	Matrix logic.Formula

	// matrix is Matrix lowered for EvalTuple: variables and sets resolved
	// to prefix indices, nodes in prefix order.
	matrix []matrixNode
	// valid records that no tuple of any world on at most r points
	// falsifies the matrix (tw-bound's x = x, for one), so no tuple of any
	// graph does: checkCliqueLocal visits every such world and tuple.
	// The clique-tuple check then has nothing to look for.
	valid bool

	// The intro memo caches the introduce-node transition tables of the
	// table-driven solver, keyed by bag configuration (size, introduced
	// position, adjacency of the bag pairs the table reads; see
	// tablesFor). Library sentences are compiled once and shared
	// process-wide, so the memo amortizes table construction across every
	// decomposition the sentence is ever solved on. A typed map under an
	// RWMutex (instead of a sync.Map) keeps the read path free of
	// interface boxing — the lookup runs once per introduce node.
	introMu sync.RWMutex
	intro   map[string]*introTables
}

// NumSets returns the number of existentially quantified sets (the
// per-vertex witness width in bits).
func (phi *EMSO) NumSets() int { return len(phi.Sets) }

func (phi *EMSO) String() string { return phi.Source.String() }

// CompileEMSO checks that f belongs to the clique-local existential-MSO
// fragment and compiles it for the DP and the verifier.
func CompileEMSO(f logic.Formula) (*EMSO, error) {
	if !logic.IsSentence(f) {
		return nil, fmt.Errorf("treewidth: emso: needs a sentence, got %s", f)
	}
	phi := &EMSO{Source: f}
	// The name-to-index maps live only while compiling: lowering the
	// matrix resolves every name it uses.
	varIdx, setIdx := map[logic.Var]int{}, map[logic.SetVar]int{}
	cur := f
	for {
		es, ok := cur.(logic.ExistsSet)
		if !ok {
			break
		}
		if _, dup := setIdx[es.S]; dup {
			return nil, fmt.Errorf("treewidth: emso: set variable %s bound twice", es.S)
		}
		setIdx[es.S] = len(phi.Sets)
		phi.Sets = append(phi.Sets, es.S)
		cur = es.F
	}
	for {
		fa, ok := cur.(logic.ForAll)
		if !ok {
			break
		}
		if _, dup := varIdx[fa.V]; dup {
			return nil, fmt.Errorf("treewidth: emso: vertex variable %s bound twice", fa.V)
		}
		varIdx[fa.V] = len(phi.Vars)
		phi.Vars = append(phi.Vars, fa.V)
		cur = fa.F
	}
	if err := quantifierFree(cur); err != nil {
		return nil, fmt.Errorf("treewidth: emso: %w (fragment: existsset* forall* matrix)", err)
	}
	phi.Matrix = cur
	if len(phi.Sets) > MaxEMSOSetVars {
		return nil, fmt.Errorf("treewidth: emso: %d set variables (limit %d)", len(phi.Sets), MaxEMSOSetVars)
	}
	if len(phi.Vars) > MaxEMSOVars {
		return nil, fmt.Errorf("treewidth: emso: %d vertex variables (limit %d)", len(phi.Vars), MaxEMSOVars)
	}
	if len(phi.Vars) == 0 {
		return nil, fmt.Errorf("treewidth: emso: matrix has no universally quantified variables")
	}
	fv, fs := logic.FreeVars(cur)
	for _, v := range fv {
		if _, ok := varIdx[v]; !ok {
			return nil, fmt.Errorf("treewidth: emso: matrix uses %s outside the forall prefix", v)
		}
	}
	for _, s := range fs {
		if _, ok := setIdx[s]; !ok {
			return nil, fmt.Errorf("treewidth: emso: matrix uses %s outside the existsset prefix", s)
		}
	}
	phi.matrix = lowerMatrix(cur, varIdx, setIdx)
	if err := phi.checkCliqueLocal(); err != nil {
		return nil, err
	}
	return phi, nil
}

// MustCompileEMSO is CompileEMSO for the static property library.
func MustCompileEMSO(f logic.Formula) *EMSO {
	phi, err := CompileEMSO(f)
	if err != nil {
		panic(err)
	}
	return phi
}

// quantifierFree rejects any quantifier below the prefix.
func quantifierFree(f logic.Formula) error {
	switch t := f.(type) {
	case logic.Equal, logic.Adj, logic.In, logic.HasLabel:
		return nil
	case logic.Not:
		return quantifierFree(t.F)
	case logic.And:
		if err := quantifierFree(t.L); err != nil {
			return err
		}
		return quantifierFree(t.R)
	case logic.Or:
		if err := quantifierFree(t.L); err != nil {
			return err
		}
		return quantifierFree(t.R)
	case logic.Implies:
		if err := quantifierFree(t.L); err != nil {
			return err
		}
		return quantifierFree(t.R)
	case logic.ForAll, logic.Exists, logic.ForAllSet, logic.ExistsSet:
		return fmt.Errorf("quantifier %T below the prefix", f)
	default:
		return fmt.Errorf("unknown formula node %T", f)
	}
}

// checkCliqueLocal verifies the fragment's semantic side condition by
// exhausting every world on at most r points: whenever all clique tuples
// of a world satisfy the matrix, every tuple must. A counterexample world
// is one where the DP would see nothing wrong (all bag-visible tuples
// fine) while the sentence is still violated by a spread-out tuple — such
// formulas cannot be certified by this scheme and are rejected here, at
// compile time. Along the way it sets phi.valid: a world's tuple loop
// stops only at a falsified tuple, so the flag ends true exactly when no
// tuple of any world falsifies the matrix.
func (phi *EMSO) checkCliqueLocal() error {
	r, m := len(phi.Vars), len(phi.Sets)
	phi.valid = true
	for p := 1; p <= r; p++ {
		pairs := p * (p - 1) / 2
		for gbits := 0; gbits < 1<<pairs; gbits++ {
			g := graph.New(p)
			idx := 0
			for i := 0; i < p; i++ {
				for j := i + 1; j < p; j++ {
					if gbits>>idx&1 == 1 {
						g.MustAddEdge(i, j)
					}
					idx++
				}
			}
			tuples := 1
			for i := 0; i < r; i++ {
				tuples *= p
			}
			for mb := 0; mb < 1<<(m*p); mb++ {
				member := func(set, point int) bool { return mb>>(set*p+point)&1 == 1 }
				cliquesOK := true
				var bad []int
				for enc := 0; enc < tuples; enc++ {
					tuple := make([]int, r)
					e := enc
					for i := range tuple {
						tuple[i] = e % p
						e /= p
					}
					if phi.EvalTuple(tuple, func(a, b int) bool { return g.HasEdge(a, b) }, member) {
						continue
					}
					phi.valid = false
					if cliqueTuple(g, tuple) {
						cliquesOK = false
						break
					}
					bad = tuple
				}
				if cliquesOK && bad != nil {
					return fmt.Errorf("treewidth: emso: %s is not clique-local: "+
						"a %d-point world violates the matrix only on a tuple with non-adjacent distinct vertices, "+
						"which neither the decomposition DP nor a radius-1 verifier can see", phi.Source, p)
				}
			}
		}
	}
	return nil
}

// cliqueTuple reports whether the tuple's points are pairwise equal or
// adjacent.
func cliqueTuple(g *graph.Graph, tuple []int) bool {
	for i := 0; i < len(tuple); i++ {
		for j := i + 1; j < len(tuple); j++ {
			if tuple[i] != tuple[j] && !g.HasEdge(tuple[i], tuple[j]) {
				return false
			}
		}
	}
	return true
}

// matrixOp is the operation of one compiled matrix node.
type matrixOp uint8

const (
	opFalse   matrixOp = iota // constant false
	opTrue                    // constant true
	opEqual                   // tuple[a] = tuple[b]
	opAdj                     // tuple[a] ~ tuple[b]
	opIn                      // tuple[a] in set b
	opNot                     // not the next node
	opAnd                     // the next node and node b
	opOr                      // the next node or node b
	opImplies                 // the next node implies node b
)

// matrixNode is one node of the compiled matrix, which is stored in
// prefix order: a connective's first operand is the node right after it
// and its second operand is node b. An atom's a and b are variable
// indices, except that opIn's b is a set index.
type matrixNode struct {
	op   matrixOp
	a, b int32
}

// lowerMatrix compiles a quantifier-free matrix (checked by
// quantifierFree) into prefix-ordered nodes, resolving every variable and
// set name through the prefix indices.
func lowerMatrix(f logic.Formula, varIdx map[logic.Var]int, setIdx map[logic.SetVar]int) []matrixNode {
	var out []matrixNode
	var lower func(f logic.Formula)
	lower = func(f logic.Formula) {
		at := len(out)
		out = append(out, matrixNode{})
		var l, r logic.Formula
		switch t := f.(type) {
		case logic.Equal:
			out[at] = matrixNode{op: opEqual, a: int32(varIdx[t.X]), b: int32(varIdx[t.Y])}
		case logic.Adj:
			out[at] = matrixNode{op: opAdj, a: int32(varIdx[t.X]), b: int32(varIdx[t.Y])}
		case logic.In:
			out[at] = matrixNode{op: opIn, a: int32(varIdx[t.X]), b: int32(setIdx[t.S])}
		case logic.HasLabel:
			// The treewidth workload runs on unlabeled graphs: every
			// vertex carries label 0.
			if t.Label == 0 {
				out[at].op = opTrue
			}
		case logic.Not:
			out[at].op = opNot
			lower(t.F)
		case logic.And:
			out[at].op, l, r = opAnd, t.L, t.R
		case logic.Or:
			out[at].op, l, r = opOr, t.L, t.R
		case logic.Implies:
			out[at].op, l, r = opImplies, t.L, t.R
		default:
			panic(fmt.Sprintf("treewidth: emso: unexpected matrix node %T", f))
		}
		if l != nil {
			lower(l)
			out[at].b = int32(len(out))
			lower(r)
		}
	}
	lower(f)
	return out
}

// EvalTuple evaluates the matrix with the i-th variable bound to the
// abstract point tuple[i]; adjacency and set membership are supplied by
// oracles over points. The verifier's tuple checks (certificate-evidenced
// adjacency), the DP's transition tables and the prover's witness
// re-check (real graph adjacency) all evaluate through this single entry
// point, so they can never drift apart.
func (phi *EMSO) EvalTuple(tuple []int, adj func(a, b int) bool, member func(set, point int) bool) bool {
	ev := matrixEval{nodes: phi.matrix, tuple: tuple, adj: adj, member: member}
	return ev.eval(0)
}

// matrixEval walks the compiled matrix without allocating: a method on a
// stack-held struct instead of a recursive closure, which keeps EvalTuple
// cheap enough for the verifier's per-tuple checks and the DP's witness
// guard.
type matrixEval struct {
	nodes  []matrixNode
	tuple  []int
	adj    func(a, b int) bool
	member func(set, point int) bool
}

func (ev *matrixEval) eval(i int32) bool {
	nd := &ev.nodes[i]
	switch nd.op {
	case opTrue:
		return true
	case opEqual:
		return ev.tuple[nd.a] == ev.tuple[nd.b]
	case opAdj:
		a, b := ev.tuple[nd.a], ev.tuple[nd.b]
		return a != b && ev.adj(a, b)
	case opIn:
		return ev.member(int(nd.b), ev.tuple[nd.a])
	case opNot:
		return !ev.eval(i + 1)
	case opAnd:
		return ev.eval(i+1) && ev.eval(nd.b)
	case opOr:
		return ev.eval(i+1) || ev.eval(nd.b)
	case opImplies:
		return !ev.eval(i+1) || ev.eval(nd.b)
	default: // opFalse
		return false
	}
}

// word helpers: DP states pack one m-bit membership word per bag position.

func wordAt(s uint64, pos, m int) uint64 { return s >> uint(m*pos) & (1<<uint(m) - 1) }

func expandWord(s uint64, pos, m int, w uint64) uint64 {
	low := s & (1<<uint(m*pos) - 1)
	high := s >> uint(m*pos)
	return low | w<<uint(m*pos) | high<<uint(m*(pos+1))
}

func forgetWord(s uint64, pos, m int) uint64 {
	low := s & (1<<uint(m*pos) - 1)
	high := s >> uint(m*(pos+1))
	return low | high<<uint(m*pos)
}

// cliqueTuples is the one clique-tuple walk of the package: Verify's
// property check, the EMSO DP's witness re-check and the DP's transition
// tables all draw their cliques from it. It runs over points 0..n-1
// shaped like a radius-1 view: point 0, the centre, is adjacent to every
// other point, and every edge among points 1..n-1 is listed in the
// out-list of at least one of its endpoints. Verify's centre is the
// verifying vertex and a neighbour's out-list holds the neighbours its
// self-verified row marks adjacent, at most T+1 of them; the DP's centre
// is an introduce node's vertex, the other points its neighbours in the
// bag (centredWalk lays them out).
type cliqueTuples struct {
	phi *EMSO
	n   int
	// start and out hold the out-lists of points 1..n-1: point a's is
	// out[start[a]:start[a+1]], and start[0] = start[1] = 0. They are
	// read only when the matrix has two variables or more (out-lists of
	// third points only at three), and the centre's is implicit.
	start []int32
	out   []int32
	// adj and member are the adjacency and membership oracles over
	// points that EvalTuple reads; adj must be symmetric and agree with
	// the out-lists.
	adj    func(a, b int) bool
	member func(set, point int) bool
	// centred restricts the check to tuples containing the centre.
	centred bool
	// probes counts the adjacency questions the enumeration asks:
	// out-list entries drawn and adj calls made to close a triangle.
	probes int
	pts    [MaxEMSOVars]int
	tuple  [MaxEMSOVars]int
}

// allTuplesOK reports whether the matrix holds on every tuple whose
// points are pairwise equal or adjacent, or on every such tuple
// containing the centre when centred. The compile-time clique-locality
// check makes the matrix true on every other tuple, and a valid matrix
// (EMSO.valid) on every tuple, so for one it returns at once.
func (ct *cliqueTuples) allTuplesOK() bool {
	return ct.phi.valid || ct.eachClique(ct.clique)
}

// eachClique calls visit(k, p0, p1, p2) on every clique of at most r
// points, the clique being the first k of p0, p1, p2, and stops at the
// first visit that returns false; it reports whether none did. A clique
// tuple is reached through its set of distinct points, drawn from the
// out-lists: every point a, every a→b and every path a→b→c that an a–c
// edge closes. However its edges are listed, a triangle holds such a
// path, so every clique is visited (one whose edges are listed twice is
// visited twice), and centred, every clique through the centre, each from
// the centre first. Out-lists of at most T+1 entries bound the probes by
// O(n·(T+1)^(r−1)): linear in a view's degree, where drawing every point
// after every other was Θ(deg^r) at a hub.
func (ct *cliqueTuples) eachClique(visit func(k, p0, p1, p2 int) bool) bool {
	r := len(ct.phi.Vars)
	for a := 0; a < ct.n; a++ {
		if !visit(1, a, 0, 0) {
			return false
		}
		if r >= 2 {
			lo, hi := 1, ct.n // the centre's out-list: every other point
			if a > 0 {
				lo, hi = int(ct.start[a]), int(ct.start[a+1])
			}
			for i := lo; i < hi; i++ {
				b := i
				if a > 0 {
					b = int(ct.out[i])
				}
				ct.probes++
				if !visit(2, a, b, 0) {
					return false
				}
				if r < 3 {
					continue
				}
				for _, c := range ct.out[ct.start[b]:ct.start[b+1]] {
					ct.probes++
					if int(c) == a {
						continue
					}
					if a > 0 {
						ct.probes++
						if !ct.adj(a, int(c)) {
							continue
						}
					}
					if !visit(3, a, b, int(c)) {
						return false
					}
				}
			}
		}
		if ct.centred {
			break // every clique through the centre is drawn from it
		}
	}
	return true
}

// clique evaluates the matrix on every r-tuple whose distinct points are
// exactly the k given ones.
func (ct *cliqueTuples) clique(k, p0, p1, p2 int) bool {
	ct.pts = [MaxEMSOVars]int{p0, p1, p2}
	return ct.fill(0, k, 0)
}

// fill assigns tuple positions i.. from the clique's k points; used marks
// the points placed so far, and only tuples using all k are evaluated.
func (ct *cliqueTuples) fill(i, k int, used uint) bool {
	r := len(ct.phi.Vars)
	if i == r {
		return used != 1<<k-1 || ct.phi.EvalTuple(ct.tuple[:r], ct.adj, ct.member)
	}
	for j := 0; j < k; j++ {
		ct.tuple[i] = ct.pts[j]
		if !ct.fill(i+1, k, used|1<<j) {
			return false
		}
	}
	return true
}
