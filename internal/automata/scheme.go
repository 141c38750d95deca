package automata

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/rooted"
)

// treeAutomaton is a deterministic bottom-up automaton over rooted,
// unordered trees, as TreeScheme runs it. Two kinds implement it: the
// hand-built UOP automata (*Automaton) and the automata discovered from
// FO sentences by rank-k typing (*TypeCompiler).
type treeAutomaton interface {
	// schemeName names the certified property.
	schemeName() string
	// numStates bounds the states a certificate may carry.
	numStates() int
	// stateBits is the width of a certificate's state field.
	stateBits() int
	// run assigns every vertex of t its state; ok is false when no run
	// exists (the automaton rejects).
	run(t *rooted.Tree) (states []int, ok bool, err error)
	// step reports whether a vertex whose children carry the given state
	// counts may carry state q.
	step(q int, counts []int) bool
	// accepts reports whether a root in state q with these children
	// counts accepts.
	accepts(q int, counts []int) bool
}

// TreeScheme is the certification scheme of Theorem 2.2: any MSO property
// of trees — given as a deterministic bottom-up tree automaton — is
// certified with O(1) bits per vertex.
//
// The certificate of a vertex is (distance to the root mod 3, automaton
// state): 2 bits plus a state field of constant width, independent of n.
// The verification at each vertex is the paper's:
//
//  1. orientation (orient): either exactly one neighbour is one level up
//     (mod 3) and all others one level down, or the vertex is the root
//     (level 0, all neighbours one level down);
//  2. the automaton description is shared (scheme parameter — the paper
//     writes it into every certificate; it is independent of n either
//     way);
//  3. the vertex's state, together with the states of the neighbours it
//     identified as children, is a correct transition; the root's state
//     additionally is accepting.
//
// The scheme operates under the paper's promise that the input graph is a
// tree: with O(1)-bit certificates acyclicity itself is not certifiable
// (it needs Theta(log n)), so Prove rejects non-trees and Holds reports
// an error for them.
type TreeScheme struct {
	aut treeAutomaton
	// GroundTruth computes the certified property centrally.
	GroundTruth func(g *graph.Graph) (bool, error)
}

var _ cert.Scheme = (*TreeScheme)(nil)

// NewTreeScheme builds a TreeScheme after validating the automaton.
func NewTreeScheme(a *Automaton, groundTruth func(*graph.Graph) (bool, error)) (*TreeScheme, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &TreeScheme{aut: a, GroundTruth: groundTruth}, nil
}

// Name implements cert.Scheme.
func (s *TreeScheme) Name() string { return s.aut.schemeName() }

// CertificateBits returns the exact certificate size in bits — a
// constant: 2 bits of orientation plus the state field.
func (s *TreeScheme) CertificateBits() int { return 2 + s.aut.stateBits() }

// Holds implements cert.Scheme.
func (s *TreeScheme) Holds(g *graph.Graph) (bool, error) {
	if !g.IsTree() {
		return false, fmt.Errorf("automata: %s: input is not a tree (promise violated)", s.Name())
	}
	return s.GroundTruth(g)
}

// Prove implements cert.Scheme: the tree is rooted at its minimum-ID
// vertex and every vertex gets (depth mod 3, state of the run).
func (s *TreeScheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	if !g.IsTree() {
		return nil, fmt.Errorf("automata: %s: input is not a tree", s.Name())
	}
	root := 0
	for v := 1; v < g.N(); v++ {
		if g.IDOf(v) < g.IDOf(root) {
			root = v
		}
	}
	t, err := rooted.FromGraph(g, root)
	if err != nil {
		return nil, err
	}
	states, ok, err := s.aut.run(t)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("automata: %s: property does not hold (no run)", s.Name())
	}
	counts := make([]int, s.aut.numStates())
	for _, c := range t.Children(root) {
		counts[states[c]]++
	}
	if !s.aut.accepts(states[root], counts) {
		return nil, fmt.Errorf("automata: %s: property does not hold (root rejects)", s.Name())
	}
	depths := t.Depths()
	a := make(cert.Assignment, g.N())
	width := s.aut.stateBits()
	for v := 0; v < g.N(); v++ {
		var w bitio.Writer
		w.WriteUint(uint64(depths[v]%3), 2)
		w.WriteUint(uint64(states[v]), width)
		a[v] = w.Clone()
	}
	return a, nil
}

// Verify implements cert.Scheme.
func (s *TreeScheme) Verify(v cert.View) bool {
	numStates := s.aut.numStates()
	counts := make([]int, numStates)
	state, parent, _, ok := orient(v, s.aut.stateBits(), numStates, counts)
	if !ok || !s.aut.step(state, counts) {
		return false
	}
	return parent != -1 || s.aut.accepts(state, counts)
}

// orient decodes v's (depth mod 3, state) certificate and its
// neighbours', and orients the tree around v: the parent is the one
// neighbour a level up (mod 3), the children are the neighbours a level
// down, and only a level-0 vertex may have no parent. It fails on a
// malformed certificate, on a neighbour at v's own level and on a second
// parent. It returns v's state, the parent's state (-1 at the root) and
// the number of children; childCounts, when non-nil, must hold numStates
// zeros and receives the number of children in each state.
func orient(v cert.View, width, numStates int, childCounts []int) (state, parent, children int, ok bool) {
	d3, state, ok := decodeState(v.Cert, width, numStates)
	if !ok {
		return 0, 0, 0, false
	}
	parent = -1
	for _, nb := range v.Neighbors {
		nd3, nq, ok := decodeState(nb.Cert, width, numStates)
		switch {
		case !ok:
			return 0, 0, 0, false
		case nd3 == (d3+2)%3:
			if parent != -1 {
				return 0, 0, 0, false
			}
			parent = nq
		case nd3 == (d3+1)%3:
			children++
			if childCounts != nil {
				childCounts[nq]++
			}
		default: // v's own level
			return 0, 0, 0, false
		}
	}
	if parent == -1 && d3 != 0 {
		return 0, 0, 0, false
	}
	return state, parent, children, true
}

// decodeState splits a certificate into (depth mod 3, state): 2 bits of
// level, then width bits of a state below numStates. It fails closed on
// malformed input.
func decodeState(c cert.Certificate, width, numStates int) (d3, state int, ok bool) {
	r := bitio.NewReader(c)
	d, err := r.ReadUint(2)
	if err != nil || d > 2 {
		return 0, 0, false
	}
	q, err := r.ReadUint(width)
	if err != nil || q >= uint64(numStates) || r.Remaining() != 0 {
		return 0, 0, false
	}
	return int(d), int(q), true
}

// The hand-built automata run with every vertex labelled 0.

func (a *Automaton) schemeName() string { return "tree-mso(" + a.Name + ")" }

func (a *Automaton) numStates() int { return a.NumStates }

func (a *Automaton) stateBits() int { return bitio.UintWidth(uint64(a.NumStates - 1)) }

func (a *Automaton) run(t *rooted.Tree) ([]int, bool, error) { return a.Run(t, nil) }

func (a *Automaton) step(q int, counts []int) bool { return a.CheckLocal(q, 0, counts) }

func (a *Automaton) accepts(q int, counts []int) bool { return a.CheckRoot(q, counts) }
