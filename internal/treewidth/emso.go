package treewidth

import (
	"fmt"
	"slices"

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

// cliqueTableWords is the length of one clique-table row: 2^(m·k) bits
// for a clique of k points, at most 2⁹ = 512.
const cliqueTableWords = (1 << (MaxEMSOVars * MaxEMSOSetVars)) / 64

// cliqueTable is the matrix tabled on cliques. Row k−1 holds one bit per
// combination of k points' m-bit membership words (point i's word at
// bits m·i): whether the matrix holds on every r-tuple that uses all k of
// k distinct, pairwise adjacent points. Inside a clique two distinct
// points are adjacent and equality is by point, so the bit is the
// matrix's whole verdict on the clique.
type cliqueTable [MaxEMSOVars][cliqueTableWords]uint64

// holds reads the bit of a k-point clique whose words are packed in w.
func (t *cliqueTable) holds(k int, w uint64) bool {
	return t[k-1][w>>6]>>(w&63)&1 == 1
}

// EMSO is a compiled sentence of the fragment; build one with CompileEMSO.
// It is immutable once compiled: the DP builds its transition tables in
// each run's own scratch, so one compiled sentence (the property
// library's, the compile cache's) is safe to share across goroutines
// with no lock, and nothing a graph brings is ever stored on it.
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
	// cliques is the matrix tabled once per clique size and word
	// combination (tableCliques): Verify, the DP's transition tables and
	// its witness re-check read one bit per clique from it.
	cliques cliqueTable
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
	phi.tableCliques()
	return phi, nil
}

// tableCliques fills phi.cliques: for every clique size k ≤ r and every
// combination of the k points' words, it evaluates the matrix on each
// r-tuple over points 0..k−1 that uses all k, distinct points adjacent.
func (phi *EMSO) tableCliques() {
	r, m := len(phi.Vars), len(phi.Sets)
	adj := func(a, b int) bool { return a != b }
	var tuple [MaxEMSOVars]int
	for k := 1; k <= r; k++ {
		tuples := 1
		for i := 0; i < r; i++ {
			tuples *= k
		}
		for w := 0; w < 1<<(m*k); w++ {
			member := func(set, p int) bool { return w>>(m*p+set)&1 == 1 }
			holds := true
			for enc := 0; enc < tuples && holds; enc++ {
				used := 0
				for i, e := 0, enc; i < r; i, e = i+1, e/k {
					tuple[i] = e % k
					used |= 1 << tuple[i]
				}
				if used == 1<<k-1 {
					holds = phi.EvalTuple(tuple[:r], adj, member)
				}
			}
			if holds {
				phi.cliques[k-1][w>>6] |= 1 << (w & 63)
			}
		}
	}
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
// oracles over points. It is the one evaluator at compile time: the
// clique-locality check runs it on every small world and tableCliques on
// every clique, so Verify, the DP's transition tables and its witness
// re-check, which read that table, judge a clique exactly as it does.
func (phi *EMSO) EvalTuple(tuple []int, adj func(a, b int) bool, member func(set, point int) bool) bool {
	ev := matrixEval{nodes: phi.matrix, tuple: tuple, adj: adj, member: member}
	return ev.eval(0)
}

// matrixEval walks the compiled matrix without allocating: a method on a
// stack-held struct instead of a recursive closure.
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
// other point, and two other points are adjacent exactly when one lists
// the other in its out-list. Verify's centre is the verifying vertex and
// a neighbour's out-list holds the neighbours its self-verified row marks
// adjacent, at most T+1 of them; the DP's centre is an introduce node's
// vertex, the other points its neighbours in the bag (centredWalk lays
// them out). A clique is judged by one read of the sentence's clique
// table at its points' membership words.
type cliqueTuples struct {
	phi *EMSO
	n   int
	// start and out hold the out-lists of points 1..n-1: point a's is
	// out[start[a]:start[a+1]], and start[0] = start[1] = 0. They are
	// read only when the matrix has two variables or more (out-lists of
	// third points only at three), and the centre's is implicit.
	start []int32
	out   []int32
	// words holds each point's m-bit membership word; nil when the
	// sentence has no set variable, whose words are all 0.
	words []uint64
	// centred restricts the check to tuples containing the centre.
	centred bool
	// probes counts the adjacency questions the enumeration asks:
	// out-list entries drawn and out-list scans made to close a triangle.
	probes int
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
						if !ct.linked(a, int(c)) {
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

// linked reports whether points a and b, neither the centre, are
// adjacent: whether either lists the other.
func (ct *cliqueTuples) linked(a, b int) bool {
	return slices.Contains(ct.out[ct.start[a]:ct.start[a+1]], int32(b)) ||
		slices.Contains(ct.out[ct.start[b]:ct.start[b+1]], int32(a))
}

// clique reports whether the matrix holds on every r-tuple whose distinct
// points are exactly the k given ones: the clique table's bit at their
// words, point i's at bits m·i.
func (ct *cliqueTuples) clique(k, p0, p1, p2 int) bool {
	var w uint64
	if ct.words != nil {
		m := len(ct.phi.Sets)
		pts := [MaxEMSOVars]int{p0, p1, p2}
		for i, p := range pts[:k] {
			w |= ct.words[p] << uint(m*i)
		}
	}
	return ct.phi.cliques.holds(k, w)
}
