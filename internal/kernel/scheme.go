package kernel

import (
	"fmt"
	"sync"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/rooted"
	"repro/internal/treedepth"
)

// typeIndexBits is the fixed width of a type index in certificates. The
// number of end types is bounded by f_1(k,t) (Proposition 6.2) — a
// constant in n — and the registry assigns small dense indices; 16 bits
// keeps the encoding simple while staying a true constant.
const typeIndexBits = 16

// MSOScheme is the Theorem 2.6 certification: an FO/MSO sentence phi on
// graphs of treedepth at most T is certified with O(T log n + f(T, phi))
// bits. The certificate of a vertex v at depth d consists of:
//
//  1. the Theorem 2.4 treedepth payload (ancestor identifiers and
//     per-ancestor spanning trees): O(T log n) bits;
//  2. d "pruned" flags, one per ancestor including v itself;
//  3. d end-type indices, one per ancestor including v itself, each a
//     constant-width reference into the scheme's type registry (the
//     paper encodes the type in log f_i(k,t) bits; the registry plays
//     the role of the automaton description shared in Theorem 2.2).
//
// Verification embeds the Theorem 2.4 checks, then the Proposition 6.4
// checks: each vertex validates its own ancestor vector against its end
// type, validates its end type against the multiset of its children's
// end types (reported by the subtree vertices adjacent to it, which
// exist by coherence — itself enforced by the exit-vertex checks), and
// enforces Lemma 6.1 for pruned children. Finally the elimination root
// reconstructs the kernel from its end type and evaluates phi on it.
type MSOScheme struct {
	T       int
	Formula logic.Formula
	// Rank is the quantifier depth used for the kernel; it defaults to
	// the formula's quantifier depth.
	Rank int
	// Predicate, when set, replaces logic.Eval as the evaluator of the
	// certified property on kernels. It must be invariant under ≃_Rank
	// (i.e. expressible as an MSO sentence of quantifier depth Rank);
	// Corollary 2.7 uses it for bounded-circumference checks whose FO
	// forms have too many quantifiers to evaluate by brute force.
	Predicate func(g *graph.Graph) (bool, error)
	// ModelProvider optionally supplies elimination trees, as in
	// treedepth.Scheme.
	ModelProvider func(g *graph.Graph) (*rooted.Tree, error)

	mu      sync.Mutex
	codes   map[string]int // type code -> index
	types   []*TypeNode    // index -> structured type
	verdict map[int]bool   // root type index -> phi holds on reconstruction
}

var _ cert.Scheme = (*MSOScheme)(nil)

// NewMSOScheme builds the Theorem 2.6 scheme for a sentence and treedepth
// bound.
func NewMSOScheme(t int, f logic.Formula) (*MSOScheme, error) {
	if !logic.IsSentence(f) {
		return nil, fmt.Errorf("kernel: MSOScheme needs a sentence, got %s", f)
	}
	rank := logic.QuantifierDepth(f)
	if rank < 1 {
		rank = 1
	}
	return &MSOScheme{
		T:       t,
		Formula: f,
		Rank:    rank,
		codes:   map[string]int{},
		verdict: map[int]bool{},
	}, nil
}

// Name implements cert.Scheme.
func (s *MSOScheme) Name() string {
	return fmt.Sprintf("kernel-mso(td<=%d, %s)", s.T, s.Formula)
}

// RegistrySize returns the number of distinct end types seen so far — the
// quantity Proposition 6.2 bounds by f(k, t).
func (s *MSOScheme) RegistrySize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.types)
}

// Holds implements cert.Scheme: phi is evaluated on the kernel, which is
// rank-equivalent to the input (Proposition 6.3) and small enough for
// exhaustive MSO evaluation.
func (s *MSOScheme) Holds(g *graph.Graph) (bool, error) {
	red, err := s.reduce(g)
	if err != nil {
		return false, err
	}
	return s.evaluate(red.Kernel)
}

// evaluate decides the certified property on a kernel-sized graph.
func (s *MSOScheme) evaluate(g *graph.Graph) (bool, error) {
	if s.Predicate != nil {
		return s.Predicate(g)
	}
	return logic.Eval(s.Formula, logic.NewModel(g))
}

func (s *MSOScheme) reduce(g *graph.Graph) (*Reduction, error) {
	if g.N() == 0 || !g.Connected() {
		return nil, fmt.Errorf("kernel: %s: graph must be connected and non-empty", s.Name())
	}
	m, err := treedepth.Model(g, s.ModelProvider)
	if err != nil {
		return nil, err
	}
	m, err = treedepth.MakeCoherent(g, m)
	if err != nil {
		return nil, err
	}
	if treedepth.ModelDepth(m) > s.T {
		return nil, fmt.Errorf("kernel: %s: model depth %d exceeds bound", s.Name(), treedepth.ModelDepth(m))
	}
	red, err := Reduce(g, m, s.Rank)
	if err != nil {
		return nil, err
	}
	red.model = m
	return red, nil
}

// internType registers a type (by code) and returns its index.
func (s *MSOScheme) internType(t *TypeNode) int {
	code := t.Code()
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx, ok := s.codes[code]; ok {
		return idx
	}
	idx := len(s.types)
	s.codes[code] = idx
	s.types = append(s.types, t)
	return idx
}

// typeByIndex returns the registered type for an index.
func (s *MSOScheme) typeByIndex(idx int) (*TypeNode, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < 0 || idx >= len(s.types) {
		return nil, false
	}
	return s.types[idx], true
}

// rootVerdict evaluates (and caches) phi on the reconstruction of a root
// type.
func (s *MSOScheme) rootVerdict(idx int) (bool, bool) {
	t, ok := s.typeByIndex(idx)
	if !ok {
		return false, false
	}
	s.mu.Lock()
	if v, ok := s.verdict[idx]; ok {
		s.mu.Unlock()
		return v, true
	}
	s.mu.Unlock()
	g, err := ReconstructGraph(t)
	if err != nil {
		return false, false
	}
	holds, err := s.evaluate(g)
	if err != nil {
		return false, false
	}
	s.mu.Lock()
	s.verdict[idx] = holds
	s.mu.Unlock()
	return holds, true
}

// Prove implements cert.Scheme.
func (s *MSOScheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	red, err := s.reduce(g)
	if err != nil {
		return nil, err
	}
	holds, err := s.evaluate(red.Kernel)
	if err != nil {
		return nil, err
	}
	if !holds {
		return nil, fmt.Errorf("kernel: %s: property does not hold", s.Name())
	}
	payloads, err := treedepth.BuildPayloads(g, red.model)
	if err != nil {
		return nil, err
	}
	a := make(cert.Assignment, g.N())
	for v := 0; v < g.N(); v++ {
		var w bitio.Writer
		treedepth.EncodePayloadTo(&w, payloads[v])
		// Pruned flags and type indices for every ancestor, v first.
		for _, anc := range red.model.Ancestors(v) {
			w.WriteBool(red.PrunedRoot[anc])
		}
		for _, anc := range red.model.Ancestors(v) {
			idx := s.internType(red.EndType[anc])
			if idx >= 1<<typeIndexBits {
				return nil, fmt.Errorf("kernel: %s: type registry overflow (%d types)", s.Name(), idx+1)
			}
			w.WriteUint(uint64(idx), typeIndexBits)
		}
		a[v] = w.Clone()
	}
	return a, nil
}

// decoded is the parsed certificate of the kernel scheme.
type decoded struct {
	payload treedepth.Payload
	pruned  []bool
	typeIdx []int
}

func (s *MSOScheme) decode(c cert.Certificate) (decoded, bool) {
	r := bitio.NewReader(c)
	p, ok := treedepth.DecodePayloadFrom(r)
	if !ok {
		return decoded{}, false
	}
	d := len(p.List)
	out := decoded{payload: p, pruned: make([]bool, d), typeIdx: make([]int, d)}
	for i := 0; i < d; i++ {
		b, err := r.ReadBool()
		if err != nil {
			return decoded{}, false
		}
		out.pruned[i] = b
	}
	for i := 0; i < d; i++ {
		idx, err := r.ReadUint(typeIndexBits)
		if err != nil {
			return decoded{}, false
		}
		out.typeIdx[i] = int(idx)
	}
	if r.Remaining() != 0 {
		return decoded{}, false
	}
	return out, true
}

// Verify implements cert.Scheme.
func (s *MSOScheme) Verify(v cert.View) bool {
	own, ok := s.decode(v.Cert)
	if !ok {
		return false
	}
	neighbors := make([]decoded, len(v.Neighbors))
	tdNeighbors := make([]treedepth.NeighborPayload, len(v.Neighbors))
	for i, nb := range v.Neighbors {
		nd, ok := s.decode(nb.Cert)
		if !ok {
			return false
		}
		neighbors[i] = nd
		tdNeighbors[i] = treedepth.NeighborPayload{ID: nb.ID, P: nd.payload}
	}
	// Theorem 2.4 layer: the elimination tree structure.
	if !treedepth.CheckPayloads(s.T, v.ID, own.payload, tdNeighbors) {
		return false
	}
	d := len(own.payload.List)
	// Shared ancestors must carry identical flags and types across
	// neighbours (the suffix relation is already verified): any
	// mid-subtree tampering is caught on the path to the exit vertex.
	for _, nd := range neighbors {
		ndLen := len(nd.payload.List)
		shared := d
		if ndLen < shared {
			shared = ndLen
		}
		for j := 1; j <= shared; j++ {
			if own.pruned[d-j] != nd.pruned[ndLen-j] || own.typeIdx[d-j] != nd.typeIdx[ndLen-j] {
				return false
			}
		}
	}
	// Own end type must exist in the registry and match the locally
	// visible ancestor vector.
	ownType, ok := s.typeByIndex(own.typeIdx[0])
	if !ok {
		return false
	}
	if !s.checkAncestorVector(v, own, ownType) {
		return false
	}
	// Gather children reports: every neighbour that is a strict
	// descendant reports the end type and pruned flag of the child of v
	// it sits under (the entry just above v in its list).
	childType := map[graph.ID]int{}
	childPruned := map[graph.ID]bool{}
	for _, nd := range neighbors {
		ndLen := len(nd.payload.List)
		if ndLen <= d {
			continue // ancestor or unrelated (suffix checks already passed)
		}
		pos := ndLen - d - 1 // index of the child-of-v ancestor in nd's list
		childID := nd.payload.List[pos]
		if prev, seen := childType[childID]; seen {
			if prev != nd.typeIdx[pos] || childPruned[childID] != nd.pruned[pos] {
				return false
			}
			continue
		}
		childType[childID] = nd.typeIdx[pos]
		childPruned[childID] = nd.pruned[pos]
	}
	if !s.checkTypeComposition(own, ownType, childType, childPruned) {
		return false
	}
	// Lemma 6.1: a pruned child's type must appear on exactly Rank
	// surviving children.
	if !s.checkPrunedCounts(childType, childPruned) {
		return false
	}
	// Pruned-flag sanity: a vertex below a pruned ancestor is deleted;
	// its own flag may be set only for the pruned root itself. Flags of
	// ancestors are consistent across the subtree via the suffix check.
	// The elimination root evaluates phi on the kernel reconstructed from
	// its end type.
	if d == 1 {
		if own.pruned[0] {
			return false // the root is never pruned
		}
		holds, ok := s.rootVerdict(own.typeIdx[0])
		if !ok || !holds {
			return false
		}
	}
	return true
}

// checkAncestorVector verifies that the ancestor vector claimed by the
// end type matches v's actual adjacency toward its ancestors, which v
// sees directly: an ancestor is adjacent iff its identifier appears among
// v's neighbours.
func (s *MSOScheme) checkAncestorVector(v cert.View, own decoded, ownType *TypeNode) bool {
	d := len(own.payload.List)
	if len(ownType.AncVec) != d-1 {
		return false
	}
	adjacent := map[graph.ID]bool{}
	for _, nb := range v.Neighbors {
		adjacent[nb.ID] = true
	}
	// own.payload.List[i] is the ancestor at depth d-i, so AncVec[j]
	// (covering depth j+1) corresponds to list index d-1-j.
	for j := 0; j < d-1; j++ {
		ancID := own.payload.List[d-1-j]
		if ownType.AncVec[j] != adjacent[ancID] {
			return false
		}
	}
	return true
}

// checkTypeComposition verifies that v's end type equals the composition
// of its ancestor vector with the end types of its surviving children.
func (s *MSOScheme) checkTypeComposition(own decoded, ownType *TypeNode, childType map[graph.ID]int, childPruned map[graph.ID]bool) bool {
	expected := &TypeNode{AncVec: ownType.AncVec}
	for id, idx := range childType {
		if childPruned[id] {
			continue
		}
		ct, ok := s.typeByIndex(idx)
		if !ok {
			return false
		}
		expected.Children = append(expected.Children, ct)
	}
	return expected.Code() == ownType.Code()
}

// checkPrunedCounts enforces Lemma 6.1.
func (s *MSOScheme) checkPrunedCounts(childType map[graph.ID]int, childPruned map[graph.ID]bool) bool {
	surviving := map[int]int{}
	for id, idx := range childType {
		if !childPruned[id] {
			surviving[idx]++
		}
	}
	for id, idx := range childType {
		if childPruned[id] && surviving[idx] != s.Rank {
			return false
		}
	}
	// No surviving type may exceed the cap either.
	for _, count := range surviving {
		if count > s.Rank {
			return false
		}
	}
	return true
}
