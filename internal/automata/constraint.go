// Package automata implements the tree-automata machinery behind Theorem
// 2.2: MSO properties on trees have constant-size certificates.
//
// One certification scheme, TreeScheme, serves every property: a
// vertex's certificate is its depth mod 3 (which orients the tree) and
// its state in the run of a deterministic bottom-up tree automaton, and
// each vertex checks its own transition from its children's states. Two
// kinds of automaton drive it:
//
//   - hand-built unary ordering Presburger (UOP) tree automata, the model
//     of Boneva and Talbot that captures exactly MSO on unordered,
//     unranked, unbounded-depth rooted trees (paper §4 and Appendix
//     C.2): a transition for (state, label) is a boolean combination of
//     unary atoms comparing the number of children in a given state to a
//     constant. The library (library.go) covers classic MSO properties:
//     max-degree, perfect matching, star recognition, bounded diameter,
//     leaf counting;
//   - automata discovered from FO sentences by rank-k type discovery
//     (typeauto.go), whose states are the quantifier-rank-k types of
//     rooted subtrees. The paper's logic-to-automata step is
//     non-constructive; discovery builds the automaton instance by
//     instance instead, and covers FO but not MSO.
//
// WordScheme, the warm-up of Section 4 on words, reuses the scheme's
// certificate decoder and orientation check with a DFA in place of the
// tree automaton.
package automata

import (
	"fmt"
	"strings"
)

// Constraint is a unary ordering Presburger constraint: a boolean
// combination of threshold comparisons on per-state child counts.
type Constraint interface {
	// Eval evaluates the constraint on a child-state count vector
	// (counts[q] = number of children in state q). States beyond
	// len(counts) count as zero.
	Eval(counts []int) bool
	fmt.Stringer
}

// CountAtLeast is the atom count(State) >= N.
type CountAtLeast struct{ State, N int }

// CountAtMost is the atom count(State) <= N.
type CountAtMost struct{ State, N int }

// True is the always-true constraint.
type True struct{}

// AndC is conjunction of constraints.
type AndC []Constraint

// OrC is disjunction of constraints.
type OrC []Constraint

// NotC is negation.
type NotC struct{ C Constraint }

func countOf(counts []int, q int) int {
	if q < 0 || q >= len(counts) {
		return 0
	}
	return counts[q]
}

// Eval implements Constraint.
func (c CountAtLeast) Eval(counts []int) bool { return countOf(counts, c.State) >= c.N }

// Eval implements Constraint.
func (c CountAtMost) Eval(counts []int) bool { return countOf(counts, c.State) <= c.N }

// Eval implements Constraint.
func (True) Eval([]int) bool { return true }

// Eval implements Constraint.
func (c AndC) Eval(counts []int) bool {
	for _, sub := range c {
		if !sub.Eval(counts) {
			return false
		}
	}
	return true
}

// Eval implements Constraint.
func (c OrC) Eval(counts []int) bool {
	for _, sub := range c {
		if sub.Eval(counts) {
			return true
		}
	}
	return false
}

// Eval implements Constraint.
func (c NotC) Eval(counts []int) bool { return !c.C.Eval(counts) }

func (c CountAtLeast) String() string { return fmt.Sprintf("#%d>=%d", c.State, c.N) }
func (c CountAtMost) String() string  { return fmt.Sprintf("#%d<=%d", c.State, c.N) }
func (True) String() string           { return "true" }
func (c NotC) String() string         { return "!(" + c.C.String() + ")" }

func (c AndC) String() string {
	parts := make([]string, len(c))
	for i, sub := range c {
		parts[i] = sub.String()
	}
	return "(" + strings.Join(parts, " & ") + ")"
}

func (c OrC) String() string {
	parts := make([]string, len(c))
	for i, sub := range c {
		parts[i] = sub.String()
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

// CountExactly builds count(state) == n as a conjunction of two atoms.
func CountExactly(state, n int) Constraint {
	return AndC{CountAtLeast{state, n}, CountAtMost{state, n}}
}

// NoChildren builds "no child in any of the given states".
func NoChildren(states ...int) Constraint {
	c := make(AndC, len(states))
	for i, q := range states {
		c[i] = CountAtMost{q, 0}
	}
	return c
}

// TotalChildrenExactly builds "the total number of children equals n",
// expanded over the given number of states as a finite disjunction of
// exact count vectors (valid because n and numStates are constants).
func TotalChildrenExactly(n, numStates int) Constraint {
	var out OrC
	var build func(state, remaining int, acc AndC)
	build = func(state, remaining int, acc AndC) {
		if state == numStates-1 {
			final := append(AndC{}, acc...)
			final = append(final, CountExactly(state, remaining))
			out = append(out, final)
			return
		}
		for take := 0; take <= remaining; take++ {
			next := append(AndC{}, acc...)
			next = append(next, CountExactly(state, take))
			build(state+1, remaining-take, next)
		}
	}
	if numStates <= 0 {
		return True{}
	}
	build(0, n, nil)
	return out
}
