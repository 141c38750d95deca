package automata

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/ef"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/rooted"
)

// MaxRepVertices bounds the size of class representatives the compiler is
// willing to compare with EF games; beyond it, compilation fails cleanly
// instead of degrading into unbounded game search.
const MaxRepVertices = 600

// TypeCompiler is the constructive substitute for the paper's
// logic-to-automata step (Theorem 2.2 via [7]): it discovers, per
// instance family, the finite automaton whose states are the
// quantifier-rank-k types of rooted subtrees.
//
// The construction rests on two classical facts the paper also uses:
//
//   - composition (Feferman–Vaught for rooted trees): the ≃_k type of a
//     rooted tree is determined by the multiset of ≃_k types of its child
//     subtrees with multiplicities capped at k — the same threshold-k
//     pruning as the kernel of Section 6 (Proposition 6.3's argument);
//   - finiteness: there are finitely many ≃_k types, so discovery
//     plateaus; the plateau is measured by experiment E1b.
//
// States are discovered bottom-up: a vertex's raw signature is the capped
// multiset of its children's classes; new signatures get a representative
// tree (root + capped copies of child representatives) which is compared
// against existing classes with a k-round EF game on root-marked
// structures, merging equivalent signatures into one state.
//
// The compiler is safe for concurrent verification after proving; Prove
// extends the registry under a mutex.
type TypeCompiler struct {
	formula logic.Formula
	k       int

	mu       sync.Mutex
	registry map[string]int // raw signature -> class
	classes  []*typeClass
}

type typeClass struct {
	rep     *rooted.Tree
	accepts bool
}

// NewTypeCompiler prepares a compiler for the given FO sentence; the rank
// k is the sentence's quantifier depth.
func NewTypeCompiler(f logic.Formula) (*TypeCompiler, error) {
	if !logic.IsSentence(f) {
		return nil, fmt.Errorf("automata: type compiler needs a sentence, got %s", f)
	}
	if !logic.IsFO(f) {
		return nil, fmt.Errorf("automata: type compiler handles FO sentences; for an MSO sentence on trees use the tree-mso scheme, whose automaton library covers MSO")
	}
	return &TypeCompiler{
		formula:  f,
		k:        logic.QuantifierDepth(f),
		registry: map[string]int{},
	}, nil
}

// K returns the quantifier rank used for typing.
func (tc *TypeCompiler) K() int { return tc.k }

// NumClasses returns the number of states discovered so far.
func (tc *TypeCompiler) NumClasses() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.classes)
}

// threshold is the multiplicity cap: k suffices for rank-k games (k
// pebbles can touch at most k copies), with a floor of 1.
func (tc *TypeCompiler) threshold() int {
	if tc.k < 1 {
		return 1
	}
	return tc.k
}

// signature is the registry key of a child-class count vector: one
// "class:count;" per class present, in class order, counts capped at cap.
func signature(childCounts []int, cap int) string {
	var buf [64]byte
	b := buf[:0]
	for c, n := range childCounts {
		if n <= 0 {
			continue
		}
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(min(n, cap)), 10)
		b = append(b, ';')
	}
	return string(b)
}

// classify returns the class of a vertex whose children have the given
// class counts (indexed by class), discovering a new class if needed.
// The caller must hold tc.mu.
func (tc *TypeCompiler) classify(childCounts []int) (int, error) {
	key := signature(childCounts, tc.threshold())
	if c, ok := tc.registry[key]; ok {
		return c, nil
	}
	rep, err := tc.buildRepresentative(childCounts)
	if err != nil {
		return 0, err
	}
	repStruct := rootMarked(rep)
	for c, cls := range tc.classes {
		if ef.Equivalent(rootMarked(cls.rep), repStruct, tc.k) {
			tc.registry[key] = c
			return c, nil
		}
	}
	accepts, err := logic.Eval(tc.formula, logic.NewModel(rep.ToGraph()))
	if err != nil {
		return 0, fmt.Errorf("automata: evaluating %s on representative: %w", tc.formula, err)
	}
	tc.classes = append(tc.classes, &typeClass{rep: rep, accepts: accepts})
	c := len(tc.classes) - 1
	tc.registry[key] = c
	return c, nil
}

// buildRepresentative constructs the k-reduced representative for a new
// signature: a fresh root with min(count, threshold) copies of each child
// class representative attached.
func (tc *TypeCompiler) buildRepresentative(childCounts []int) (*rooted.Tree, error) {
	parents := []int{-1}
	for c, count := range childCounts {
		count = min(count, tc.threshold())
		if count <= 0 {
			continue
		}
		childParents := tc.classes[c].rep.Parents()
		for copyIdx := 0; copyIdx < count; copyIdx++ {
			offset := len(parents)
			for _, p := range childParents {
				if p == -1 {
					parents = append(parents, 0) // child root hangs off the new root
				} else {
					parents = append(parents, offset+p)
				}
			}
		}
	}
	if len(parents) > MaxRepVertices {
		return nil, fmt.Errorf("automata: representative would have %d vertices (> %d); rank %d too deep for this family",
			len(parents), MaxRepVertices, tc.k)
	}
	return rooted.FromParents(parents)
}

func rootMarked(t *rooted.Tree) ef.Structure {
	labels := make([]int, t.N())
	labels[t.Root()] = 1
	return ef.Structure{G: t.ToGraph(), Labels: labels}
}

// AssignStates types every vertex of the tree bottom-up, extending the
// registry as needed, and reports the class of each vertex.
func (tc *TypeCompiler) AssignStates(t *rooted.Tree) ([]int, error) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	states := make([]int, t.N())
	for i := range states {
		states[i] = -1
	}
	var counts []int
	for _, v := range t.PostOrder() {
		counts = append(counts[:0], make([]int, len(tc.classes))...)
		for _, c := range t.Children(v) {
			counts[states[c]]++
		}
		cls, err := tc.classify(counts)
		if err != nil {
			return nil, err
		}
		states[v] = cls
	}
	return states, nil
}

// Accepts runs the discovered automaton on the tree.
func (tc *TypeCompiler) Accepts(t *rooted.Tree) (bool, error) {
	states, err := tc.AssignStates(t)
	if err != nil {
		return false, err
	}
	return tc.accepts(states[t.Root()], nil), nil
}

// NewTypeScheme compiles the FO sentence into the Theorem 2.2 scheme over
// its discovered automaton: certificates are (distance mod 3, rank-k
// type), 2 + 16 bits, and the ground truth is direct FO evaluation
// (polynomial for fixed rank).
func NewTypeScheme(f logic.Formula) (*TreeScheme, error) {
	tc, err := NewTypeCompiler(f)
	if err != nil {
		return nil, err
	}
	return &TreeScheme{aut: tc, GroundTruth: func(g *graph.Graph) (bool, error) {
		return logic.Eval(f, logic.NewModel(g))
	}}, nil
}

func (tc *TypeCompiler) schemeName() string { return fmt.Sprintf("tree-fo-types(%s)", tc.formula) }

// numStates is the number of classes discovered so far: a certificate
// may only name a known class.
func (tc *TypeCompiler) numStates() int { return tc.NumClasses() }

// stateBits is fixed at 16: it supports any realistic discovered
// automaton and keeps the certificate size a true constant, independent
// of both n and discovery order.
func (tc *TypeCompiler) stateBits() int { return 16 }

func (tc *TypeCompiler) run(t *rooted.Tree) ([]int, bool, error) {
	states, err := tc.AssignStates(t)
	return states, err == nil, err
}

// step is the verifier-side transition check: the registry must map the
// capped child-class counts to exactly class q. Unknown signatures fail
// closed — soundness over completeness.
func (tc *TypeCompiler) step(q int, counts []int) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	c, ok := tc.registry[signature(counts, tc.threshold())]
	return ok && c == q
}

// accepts reports whether class q satisfies the sentence; a type decides
// it whatever the root's children are.
func (tc *TypeCompiler) accepts(q int, _ []int) bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return q >= 0 && q < len(tc.classes) && tc.classes[q].accepts
}
