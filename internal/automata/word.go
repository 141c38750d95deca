package automata

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
)

// This file implements the warm-up construction of Section 4: on words —
// paths whose vertices carry letters — MSO equals regular languages
// (Büchi–Elgot–Trakhtenbrot), and a certification labels every vertex
// with the state of an accepting run. It is both the pedagogical entry
// point of the paper's automata technique and a substrate for tests.

// WordAutomaton is a DFA over letters [0, NumLetters).
type WordAutomaton struct {
	Name       string
	NumStates  int
	NumLetters int
	Start      int
	// Delta[q][a] is the successor state.
	Delta     [][]int
	Accepting []bool
}

// Validate checks structural well-formedness.
func (a *WordAutomaton) Validate() error {
	if a.NumStates <= 0 || a.NumLetters <= 0 {
		return fmt.Errorf("automata: %s: empty state or letter set", a.Name)
	}
	if a.Start < 0 || a.Start >= a.NumStates {
		return fmt.Errorf("automata: %s: bad start state", a.Name)
	}
	if len(a.Delta) != a.NumStates || len(a.Accepting) != a.NumStates {
		return fmt.Errorf("automata: %s: table sizes wrong", a.Name)
	}
	for q, row := range a.Delta {
		if len(row) != a.NumLetters {
			return fmt.Errorf("automata: %s: Delta[%d] has %d letters", a.Name, q, len(row))
		}
		for _, next := range row {
			if next < 0 || next >= a.NumStates {
				return fmt.Errorf("automata: %s: transition out of range", a.Name)
			}
		}
	}
	return nil
}

// AcceptsWord runs the DFA over the letter sequence.
func (a *WordAutomaton) AcceptsWord(word []int) (bool, error) {
	if err := a.Validate(); err != nil {
		return false, err
	}
	q := a.Start
	for _, letter := range word {
		if letter < 0 || letter >= a.NumLetters {
			return false, fmt.Errorf("automata: %s: letter %d out of range", a.Name, letter)
		}
		q = a.Delta[q][letter]
	}
	return a.Accepting[q], nil
}

// EvenOnesAutomaton recognizes words with an even number of 1-letters —
// the parity language, regular (hence MSO on words) but famously not
// first-order: a clean witness that the certification covers all of MSO.
func EvenOnesAutomaton() *WordAutomaton {
	return &WordAutomaton{
		Name:       "even-ones",
		NumStates:  2,
		NumLetters: 2,
		Start:      0,
		Delta:      [][]int{{0, 1}, {1, 0}},
		Accepting:  []bool{true, false},
	}
}

// NoConsecutiveOnesAutomaton recognizes words with no two adjacent 1s.
func NoConsecutiveOnesAutomaton() *WordAutomaton {
	// States: 0 = last letter was 0 (or start), 1 = last was 1, 2 = dead.
	return &WordAutomaton{
		Name:       "no-11",
		NumStates:  3,
		NumLetters: 2,
		Start:      0,
		Delta:      [][]int{{0, 1}, {0, 2}, {2, 2}},
		Accepting:  []bool{true, true, false},
	}
}

// WordScheme certifies that a labeled path (the paper's word view: the
// network is a path, each vertex holds a letter) belongs to the DFA's
// language, with O(1)-bit certificates: each vertex stores its position
// parity (2 bits of orientation, as in the tree scheme) and the run state
// after reading its letter.
//
// The promise is that the graph is a path; the letter of a vertex is
// supplied via Letters, keyed by identifier. Because the path is
// undirected, the verifier cannot pin the reading direction, so the
// recognized language must be reversal-invariant — which is exactly the
// class of MSO properties of unoriented labeled paths (any MSO property
// of an undirected structure is isomorphism-invariant). Certifying a
// direction-asymmetric DFA language with this scheme would accept the
// reversed word too.
type WordScheme struct {
	Automaton *WordAutomaton
	Letters   map[graph.ID]int
}

var _ cert.Scheme = (*WordScheme)(nil)

// NewWordScheme validates the automaton.
func NewWordScheme(a *WordAutomaton, letters map[graph.ID]int) (*WordScheme, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &WordScheme{Automaton: a, Letters: letters}, nil
}

// Name implements cert.Scheme.
func (s *WordScheme) Name() string { return "word(" + s.Automaton.Name + ")" }

func (s *WordScheme) letter(id graph.ID) int {
	if s.Letters == nil {
		return 0
	}
	return s.Letters[id]
}

// wordOrder extracts the path order of g starting from the endpoint with
// the smaller identifier, or fails if g is not a path.
func wordOrder(g *graph.Graph) ([]int, error) {
	if !g.IsTree() || g.MaxDegree() > 2 {
		return nil, fmt.Errorf("automata: word scheme needs a path")
	}
	if g.N() == 1 {
		return []int{0}, nil
	}
	var ends []int
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) == 1 {
			ends = append(ends, v)
		}
	}
	if len(ends) != 2 {
		return nil, fmt.Errorf("automata: word scheme needs a path")
	}
	start := ends[0]
	if g.IDOf(ends[1]) < g.IDOf(ends[0]) {
		start = ends[1]
	}
	order := make([]int, 0, g.N())
	prev, cur := -1, start
	for {
		order = append(order, cur)
		next := -1
		for _, w := range g.Neighbors(cur) {
			if int(w) != prev {
				next = int(w)
			}
		}
		if next == -1 {
			break
		}
		prev, cur = cur, next
	}
	if len(order) != g.N() {
		return nil, fmt.Errorf("automata: word scheme needs a path")
	}
	return order, nil
}

// Holds implements cert.Scheme.
func (s *WordScheme) Holds(g *graph.Graph) (bool, error) {
	order, err := wordOrder(g)
	if err != nil {
		return false, err
	}
	word := make([]int, len(order))
	for i, v := range order {
		word[i] = s.letter(g.IDOf(v))
	}
	return s.Automaton.AcceptsWord(word)
}

func (s *WordScheme) stateBits() int {
	return bitio.UintWidth(uint64(s.Automaton.NumStates - 1))
}

// CertificateBits is the constant certificate size.
func (s *WordScheme) CertificateBits() int { return 2 + s.stateBits() }

// Prove implements cert.Scheme: vertex i (in word order) gets (i mod 3,
// state after reading letters 0..i).
func (s *WordScheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	order, err := wordOrder(g)
	if err != nil {
		return nil, err
	}
	holds, err := s.Holds(g)
	if err != nil {
		return nil, err
	}
	if !holds {
		return nil, fmt.Errorf("automata: %s: word rejected", s.Name())
	}
	a := make(cert.Assignment, g.N())
	q := s.Automaton.Start
	width := s.stateBits()
	for i, v := range order {
		q = s.Automaton.Delta[q][s.letter(g.IDOf(v))]
		var w bitio.Writer
		w.WriteUint(uint64(i%3), 2)
		w.WriteUint(uint64(q), width)
		a[v] = w.Clone()
	}
	return a, nil
}

// Verify implements cert.Scheme. The mod-3 counter orients the path
// (increasing from the chosen end); each vertex checks the transition
// from its predecessor's state, the first vertex checks the transition
// from the start state, and the last vertex checks acceptance. Endpoint
// roles are unambiguous: an endpoint with a successor at +1 is the first
// vertex; with a predecessor at -1, the last.
func (s *WordScheme) Verify(v cert.View) bool {
	d3, state, ok := s.decode(v.Cert)
	if !ok {
		return false
	}
	if v.Degree() > 2 {
		return false
	}
	letter := s.letter(v.ID)
	if letter < 0 || letter >= s.Automaton.NumLetters {
		return false
	}
	var prevState = -1
	hasNext := false
	for _, nb := range v.Neighbors {
		nd3, nstate, ok := s.decode(nb.Cert)
		if !ok {
			return false
		}
		switch nd3 {
		case (d3 + 2) % 3: // predecessor
			if prevState != -1 {
				return false
			}
			prevState = nstate
		case (d3 + 1) % 3: // successor
			if hasNext {
				return false
			}
			hasNext = true
		default:
			return false
		}
	}
	if prevState == -1 {
		// First vertex: must sit at position 0 mod 3 = 0? Only if it is a
		// genuine endpoint (degree <= 1); its counter must be 0 so that a
		// middle vertex cannot impersonate the start.
		if d3 != 0 {
			return false
		}
		prevState = s.Automaton.Start
	}
	if s.Automaton.Delta[prevState][letter] != state {
		return false
	}
	if !hasNext && !s.Automaton.Accepting[state] {
		return false
	}
	return true
}

func (s *WordScheme) decode(c cert.Certificate) (d3, state int, ok bool) {
	r := bitio.NewReader(c)
	d, err := r.ReadUint(2)
	if err != nil || d > 2 {
		return 0, 0, false
	}
	q, err := r.ReadUint(s.stateBits())
	if err != nil || q >= uint64(s.Automaton.NumStates) || r.Remaining() != 0 {
		return 0, 0, false
	}
	return int(d), int(q), true
}
