package automata

import (
	"fmt"

	"repro/internal/rooted"
)

// Automaton is a deterministic UOP tree automaton over rooted, unordered,
// unranked trees with vertex labels in [0, NumLabels).
//
// A run assigns every vertex a state in [0, NumStates) such that for each
// vertex v with state q and label L, the transition constraint
// Delta[q][L] holds on the multiset of children states. The tree is
// accepted when the root's state is accepting and, if a RootConstraint is
// set for that state, the root's children counts also satisfy it (the
// root-side refinement is still a purely local check).
//
// Determinism is semantic: for every label and child-count vector at most
// one state's constraint should hold. CheckDeterministic probes this.
type Automaton struct {
	Name      string
	NumStates int
	NumLabels int
	// Delta[q][L] is the transition constraint for state q and label L.
	Delta [][]Constraint
	// Accepting[q] reports whether the root may carry state q.
	Accepting []bool
	// RootConstraints[q], when non-nil, is an additional constraint on the
	// root's children counts required for acceptance with state q.
	RootConstraints []Constraint
	// StateNames are optional debugging names, len NumStates when set.
	StateNames []string
}

// Validate checks structural well-formedness.
func (a *Automaton) Validate() error {
	if a.NumStates <= 0 {
		return fmt.Errorf("automata: %s: no states", a.Name)
	}
	if a.NumLabels <= 0 {
		return fmt.Errorf("automata: %s: no labels", a.Name)
	}
	if len(a.Delta) != a.NumStates {
		return fmt.Errorf("automata: %s: Delta has %d rows for %d states", a.Name, len(a.Delta), a.NumStates)
	}
	for q, row := range a.Delta {
		if len(row) != a.NumLabels {
			return fmt.Errorf("automata: %s: Delta[%d] has %d labels, want %d", a.Name, q, len(row), a.NumLabels)
		}
		for l, c := range row {
			if c == nil {
				return fmt.Errorf("automata: %s: Delta[%d][%d] is nil", a.Name, q, l)
			}
		}
	}
	if len(a.Accepting) != a.NumStates {
		return fmt.Errorf("automata: %s: Accepting has %d entries", a.Name, len(a.Accepting))
	}
	if a.RootConstraints != nil && len(a.RootConstraints) != a.NumStates {
		return fmt.Errorf("automata: %s: RootConstraints has %d entries", a.Name, len(a.RootConstraints))
	}
	return nil
}

// stateName renders a state for diagnostics.
func (a *Automaton) stateName(q int) string {
	if q >= 0 && q < len(a.StateNames) {
		return a.StateNames[q]
	}
	return fmt.Sprintf("q%d", q)
}

// Run computes the unique run of the automaton on the labeled tree.
// labels may be nil (all zero). The boolean result is false when some
// vertex admits no state — the automaton rejects by absence of a run —
// in which case states is nil. A non-nil error signals an automaton bug
// (structural problem, bad label, or a non-deterministic configuration).
func (a *Automaton) Run(t *rooted.Tree, labels []int) (states []int, ok bool, err error) {
	if err := a.Validate(); err != nil {
		return nil, false, err
	}
	states = make([]int, t.N())
	for i := range states {
		states[i] = -1
	}
	for _, v := range t.PostOrder() {
		counts := make([]int, a.NumStates)
		for _, c := range t.Children(v) {
			counts[states[c]]++
		}
		label := 0
		if labels != nil {
			label = labels[v]
		}
		if label < 0 || label >= a.NumLabels {
			return nil, false, fmt.Errorf("automata: %s: vertex %d has label %d outside [0,%d)", a.Name, v, label, a.NumLabels)
		}
		chosen := -1
		for q := 0; q < a.NumStates; q++ {
			if a.Delta[q][label].Eval(counts) {
				if chosen != -1 {
					return nil, false, fmt.Errorf("automata: %s: vertex %d admits states %s and %s (non-deterministic)",
						a.Name, v, a.stateName(chosen), a.stateName(q))
				}
				chosen = q
			}
		}
		if chosen == -1 {
			return nil, false, nil // rejected: no run exists
		}
		states[v] = chosen
	}
	return states, true, nil
}

// Accepts reports whether the automaton accepts the labeled tree.
func (a *Automaton) Accepts(t *rooted.Tree, labels []int) (bool, error) {
	states, ok, err := a.Run(t, labels)
	if err != nil || !ok {
		return false, err
	}
	counts := make([]int, a.NumStates)
	for _, c := range t.Children(t.Root()) {
		counts[states[c]]++
	}
	return a.CheckRoot(states[t.Root()], counts), nil
}

// CheckLocal is the verifier-side transition check for one vertex: state
// q with the given label and children state counts. Out-of-range states
// fail closed.
func (a *Automaton) CheckLocal(q, label int, childCounts []int) bool {
	if q < 0 || q >= a.NumStates || label < 0 || label >= a.NumLabels {
		return false
	}
	return a.Delta[q][label].Eval(childCounts)
}

// CheckRoot is the verifier-side acceptance check at the root.
func (a *Automaton) CheckRoot(q int, childCounts []int) bool {
	if q < 0 || q >= a.NumStates || !a.Accepting[q] {
		return false
	}
	if a.RootConstraints != nil && a.RootConstraints[q] != nil {
		return a.RootConstraints[q].Eval(childCounts)
	}
	return true
}

// CheckDeterministic probes determinism on all count vectors with at most
// maxChildren children (per state) and every label; it returns an error
// describing the first violating configuration found.
func (a *Automaton) CheckDeterministic(maxChildren int) error {
	if err := a.Validate(); err != nil {
		return err
	}
	counts := make([]int, a.NumStates)
	var rec func(q int) error
	var total int
	rec = func(q int) error {
		if q == a.NumStates {
			for l := 0; l < a.NumLabels; l++ {
				matches := 0
				for s := 0; s < a.NumStates; s++ {
					if a.Delta[s][l].Eval(counts) {
						matches++
					}
				}
				if matches > 1 {
					return fmt.Errorf("automata: %s: label %d, counts %v admit %d states", a.Name, l, counts, matches)
				}
			}
			return nil
		}
		for c := 0; c <= maxChildren-total; c++ {
			counts[q] = c
			total += c
			if err := rec(q + 1); err != nil {
				return err
			}
			total -= c
			counts[q] = 0
		}
		return nil
	}
	return rec(0)
}
