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
	// MaxEMSOVars bounds the universal first-order prefix: the DP and the
	// verifier enumerate bag^r tuples, and the clique-locality check
	// enumerates all r-point worlds.
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

	varIdx map[logic.Var]int
	setIdx map[logic.SetVar]int

	// The intro memo caches the introduce-node transition tables of the
	// table-driven solver, keyed by bag configuration (size, introduced
	// position, adjacency pattern) — packed into a uint64 for the common
	// narrow bags, a byte string for wide ones. Library sentences are
	// compiled once and shared process-wide, so the memo amortizes table
	// construction across every decomposition the sentence is ever
	// solved on. Typed maps under an RWMutex (instead of a sync.Map)
	// keep the read path free of interface boxing — the lookup runs once
	// per introduce node.
	introMu  sync.RWMutex
	introU64 map[uint64]*introTables
	introStr map[string]*introTables
}

// NumSets returns the number of existentially quantified sets (the
// per-vertex witness width in bits).
func (phi *EMSO) NumSets() int { return len(phi.Sets) }

// NumVars returns the number of universally quantified vertex variables.
func (phi *EMSO) NumVars() int { return len(phi.Vars) }

func (phi *EMSO) String() string { return phi.Source.String() }

// CompileEMSO checks that f belongs to the clique-local existential-MSO
// fragment and compiles it for the DP and the verifier.
func CompileEMSO(f logic.Formula) (*EMSO, error) {
	if !logic.IsSentence(f) {
		return nil, fmt.Errorf("treewidth: emso: needs a sentence, got %s", f)
	}
	phi := &EMSO{Source: f, varIdx: map[logic.Var]int{}, setIdx: map[logic.SetVar]int{}}
	cur := f
	for {
		es, ok := cur.(logic.ExistsSet)
		if !ok {
			break
		}
		if _, dup := phi.setIdx[es.S]; dup {
			return nil, fmt.Errorf("treewidth: emso: set variable %s bound twice", es.S)
		}
		phi.setIdx[es.S] = len(phi.Sets)
		phi.Sets = append(phi.Sets, es.S)
		cur = es.F
	}
	for {
		fa, ok := cur.(logic.ForAll)
		if !ok {
			break
		}
		if _, dup := phi.varIdx[fa.V]; dup {
			return nil, fmt.Errorf("treewidth: emso: vertex variable %s bound twice", fa.V)
		}
		phi.varIdx[fa.V] = len(phi.Vars)
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
		if _, ok := phi.varIdx[v]; !ok {
			return nil, fmt.Errorf("treewidth: emso: matrix uses %s outside the forall prefix", v)
		}
	}
	for _, s := range fs {
		if _, ok := phi.setIdx[s]; !ok {
			return nil, fmt.Errorf("treewidth: emso: matrix uses %s outside the existsset prefix", s)
		}
	}
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
// compile time.
func (phi *EMSO) checkCliqueLocal() error {
	r, m := len(phi.Vars), len(phi.Sets)
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

// EvalTuple evaluates the matrix with the i-th variable bound to the
// abstract point tuple[i]; adjacency and set membership are supplied by
// oracles over points. Both the DP (real graph adjacency) and the
// radius-1 verifier (certificate-evidenced adjacency) evaluate through
// this single entry point, so the two can never drift apart.
func (phi *EMSO) EvalTuple(tuple []int, adj func(a, b int) bool, member func(set, point int) bool) bool {
	ev := matrixEval{phi: phi, tuple: tuple, adj: adj, member: member}
	return ev.eval(phi.Matrix)
}

// matrixEval walks the matrix AST without allocating: a method on a
// stack-held struct instead of a recursive closure, which keeps EvalTuple
// cheap enough for the verifier's per-tuple checks and the DP's witness
// guard.
type matrixEval struct {
	phi    *EMSO
	tuple  []int
	adj    func(a, b int) bool
	member func(set, point int) bool
}

func (ev *matrixEval) eval(f logic.Formula) bool {
	switch t := f.(type) {
	case logic.Equal:
		return ev.tuple[ev.phi.varIdx[t.X]] == ev.tuple[ev.phi.varIdx[t.Y]]
	case logic.Adj:
		a, b := ev.tuple[ev.phi.varIdx[t.X]], ev.tuple[ev.phi.varIdx[t.Y]]
		return a != b && ev.adj(a, b)
	case logic.In:
		return ev.member(ev.phi.setIdx[t.S], ev.tuple[ev.phi.varIdx[t.X]])
	case logic.HasLabel:
		// The treewidth workload runs on unlabeled graphs: every vertex
		// carries label 0.
		return t.Label == 0
	case logic.Not:
		return !ev.eval(t.F)
	case logic.And:
		return ev.eval(t.L) && ev.eval(t.R)
	case logic.Or:
		return ev.eval(t.L) || ev.eval(t.R)
	case logic.Implies:
		return !ev.eval(t.L) || ev.eval(t.R)
	default:
		panic(fmt.Sprintf("treewidth: emso: unexpected matrix node %T", f))
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

// allTuplesOK enumerates var tuples over the bag and evaluates the matrix;
// when mustInclude >= 0, only tuples containing that vertex are checked
// (the others were checked at their own introduce nodes).
//
// The enumeration is pruned to tuples whose points are pairwise equal or
// adjacent: the compile-time clique-locality check guarantees the matrix
// is vacuously true on every other tuple, so skipping them is
// behaviour-identical while cutting the cost from |bag|^r to roughly the
// cliques among the candidate points (on a high-degree vertex's
// neighbourhood this is the difference between deg^r and ~deg).
func allTuplesOK(phi *EMSO, bag []int, adj func(a, b int) bool, member func(set, point int) bool, mustInclude int) bool {
	if len(bag) == 0 {
		return true
	}
	tc := tupleCheck{phi: phi, bag: bag, adj: adj, member: member, mustInclude: mustInclude}
	return tc.rec(0, false)
}

// tupleCheck is the allocation-free enumerator behind allTuplesOK: the
// tuple buffer lives in the struct (stack-held by the caller) instead of
// a fresh slice and closure per bag.
type tupleCheck struct {
	phi         *EMSO
	bag         []int
	adj         func(a, b int) bool
	member      func(set, point int) bool
	mustInclude int
	tuple       [MaxEMSOVars]int
}

func (tc *tupleCheck) rec(i int, has bool) bool {
	r := len(tc.phi.Vars)
	if i == r {
		if tc.mustInclude >= 0 && !has {
			return true
		}
		return tc.phi.EvalTuple(tc.tuple[:r], tc.adj, tc.member)
	}
next:
	for _, v := range tc.bag {
		for j := 0; j < i; j++ {
			if tc.tuple[j] != v && !tc.adj(tc.tuple[j], v) {
				continue next // non-clique tuple: vacuously true
			}
		}
		tc.tuple[i] = v
		if !tc.rec(i+1, has || v == tc.mustInclude) {
			return false
		}
	}
	return true
}
