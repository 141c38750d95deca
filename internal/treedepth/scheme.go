package treedepth

import (
	"fmt"
	"math"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/rooted"
	"repro/internal/spanning"
)

// Scheme is the Theorem 2.4 certification: "the graph has treedepth at
// most T", with O(T log n)-bit certificates.
//
// On a yes-instance the prover fixes a coherent elimination tree of depth
// at most T and gives every vertex v at depth d:
//
//   - the list of identifiers of its ancestors, from v itself up to the
//     root (d entries);
//   - for every non-root ancestor a of v (including v itself when v is
//     not the root), v's label in a spanning tree of G_a — the subgraph
//     induced by the subtree of a — rooted at an exit vertex of a (a
//     vertex of G_a adjacent to a's parent, which exists by coherence).
//
// The verification is the paper's four steps: list well-formedness,
// suffix compatibility between neighbours, presence of the d-1 spanning
// tree labels, and per-depth spanning tree checks (local correctness,
// same-suffix membership, and the exit-vertex condition at each spanning
// tree root).
type Scheme struct {
	// T is the certified treedepth bound.
	T int
	// ModelProvider, when set, supplies the elimination tree for a graph
	// (e.g. the generator's witness). When nil, Prove computes one: exact
	// for graphs up to ExactLimit vertices, best-DFS heuristic beyond
	// (see Model).
	ModelProvider func(g *graph.Graph) (*rooted.Tree, error)
}

var _ cert.Scheme = (*Scheme)(nil)

// TreeLabel is one spanning-tree entry in a certificate: the tree of
// G_a for an ancestor a, rooted at a's exit vertex.
type TreeLabel struct {
	Root   graph.ID // identifier of the exit vertex
	Parent graph.ID // identifier of the parent in the spanning tree
	Dist   uint64   // distance to the exit vertex
}

// Payload is the decoded certificate of one vertex of the Theorem 2.4
// scheme, exported so the kernel scheme of Theorem 2.6 can embed it.
type Payload struct {
	List  []graph.ID  // ancestors, own ID first, root last
	Trees []TreeLabel // Trees[j] is for ancestor List[j], j in [0, len(List)-1)
}

// Name implements cert.Scheme.
func (s *Scheme) Name() string { return fmt.Sprintf("treedepth<=%d", s.T) }

// Holds implements cert.Scheme. For graphs within ExactLimit the exact
// solver decides; beyond it a provided model (or DFS heuristic) may prove
// the positive side, and absence of a shallow model is reported as an
// error rather than a false negative.
func (s *Scheme) Holds(g *graph.Graph) (bool, error) {
	if g.N() == 0 || !g.Connected() {
		return false, fmt.Errorf("treedepth: %s: graph must be connected and non-empty", s.Name())
	}
	if g.N() <= ExactLimit {
		td, _, err := Exact(g)
		if err != nil {
			return false, err
		}
		return td <= s.T, nil
	}
	t, err := Model(g, s.ModelProvider)
	if err != nil {
		return false, err
	}
	if ModelDepth(t) <= s.T {
		return true, nil
	}
	return false, fmt.Errorf("treedepth: %s: no model of depth <= %d found for n=%d (heuristic; exact limited to %d vertices)",
		s.Name(), s.T, g.N(), ExactLimit)
}

// Prove implements cert.Scheme.
func (s *Scheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	if g.N() == 0 || !g.Connected() {
		return nil, fmt.Errorf("treedepth: %s: graph must be connected and non-empty", s.Name())
	}
	t, err := Model(g, s.ModelProvider)
	if err != nil {
		return nil, err
	}
	t, err = MakeCoherent(g, t)
	if err != nil {
		return nil, err
	}
	if ModelDepth(t) > s.T {
		return nil, fmt.Errorf("treedepth: %s: model depth %d exceeds bound", s.Name(), ModelDepth(t))
	}
	payloads, err := BuildPayloads(g, t)
	if err != nil {
		return nil, err
	}
	a := make(cert.Assignment, g.N())
	for v, p := range payloads {
		a[v] = EncodePayload(p)
	}
	return a, nil
}

// BuildPayloads assembles the per-vertex certificates from a coherent
// model.
func BuildPayloads(g *graph.Graph, t *rooted.Tree) ([]Payload, error) {
	n := g.N()
	payloads := make([]Payload, n)
	depths := t.Depths()
	// Ancestor ID lists.
	for v := 0; v < n; v++ {
		for _, a := range t.Ancestors(v) {
			payloads[v].List = append(payloads[v].List, g.IDOf(a))
		}
		payloads[v].Trees = make([]TreeLabel, len(payloads[v].List)-1)
	}
	// One spanning tree per non-root vertex a: spans G_a, rooted at an
	// exit vertex (a vertex of G_a adjacent to a's parent).
	for a := 0; a < n; a++ {
		par := t.Parent(a)
		if par == -1 {
			continue
		}
		members := t.SubtreeVertices(a)
		sub, oldIdx := g.InducedSubgraph(members)
		exit := -1
		for newIdx, old := range oldIdx {
			if g.HasEdge(old, par) {
				exit = newIdx
				break
			}
		}
		if exit == -1 {
			return nil, fmt.Errorf("treedepth: no exit vertex for subtree of %d (model not coherent)", a)
		}
		// G_a is connected for subtrees of a coherent model (Remark 1).
		parents, dist, err := spanning.BuildBFS(sub, exit)
		if err != nil {
			return nil, fmt.Errorf("treedepth: subtree of %d: %w", a, err)
		}
		for newIdx, old := range oldIdx {
			lbl := TreeLabel{Root: sub.IDOf(exit), Dist: uint64(dist[newIdx])}
			if parents[newIdx] == -1 {
				lbl.Parent = sub.IDOf(newIdx)
			} else {
				lbl.Parent = sub.IDOf(parents[newIdx])
			}
			// Ancestor a sits at position depths[old]-depths[a] in old's
			// ancestor list; its tree label goes into the same slot.
			payloads[old].Trees[depths[old]-depths[a]] = lbl
		}
	}
	return payloads, nil
}

// EncodePayload serializes a payload as a standalone certificate.
func EncodePayload(p Payload) cert.Certificate {
	var w bitio.Writer
	EncodePayloadTo(&w, p)
	return w.Clone()
}

// EncodePayloadTo appends the payload to an existing bit stream, allowing
// other schemes to concatenate further fields after it.
func EncodePayloadTo(w *bitio.Writer, p Payload) {
	w.WriteUvarint(uint64(len(p.List)))
	for _, id := range p.List {
		w.WriteUvarint(uint64(id))
	}
	for _, tl := range p.Trees {
		w.WriteUvarint(uint64(tl.Root))
		w.WriteUvarint(uint64(tl.Parent))
		w.WriteUvarint(tl.Dist)
	}
}

// DecodePayload parses a standalone payload certificate (the whole
// certificate must be consumed).
func DecodePayload(c cert.Certificate) (Payload, bool) {
	r := bitio.NewReader(c)
	p, ok := DecodePayloadFrom(r)
	if !ok || r.Remaining() != 0 {
		return Payload{}, false
	}
	return p, true
}

// DecodePayloadFrom parses a payload from a bit stream, leaving any
// trailing bits for the caller. Every identifier it returns is a positive
// graph.ID, and it allocates only for a list the remaining bits can hold.
func DecodePayloadFrom(r *bitio.Reader) (Payload, bool) {
	var p Payload
	length, err := r.ReadUvarint()
	// Each list entry takes at least one bit, so a length beyond the
	// remaining bits is rejected before anything is allocated for it.
	if err != nil || length == 0 || length > 1<<16 || length > uint64(r.Remaining()) {
		return p, false
	}
	p.List = make([]graph.ID, length)
	for i := range p.List {
		id, ok := readID(r)
		if !ok {
			return p, false
		}
		p.List[i] = id
	}
	p.Trees = make([]TreeLabel, length-1)
	for i := range p.Trees {
		root, ok1 := readID(r)
		parent, ok2 := readID(r)
		dist, err := r.ReadUvarint()
		if !ok1 || !ok2 || err != nil {
			return p, false
		}
		p.Trees[i] = TreeLabel{Root: root, Parent: parent, Dist: dist}
	}
	return p, true
}

// readID reads one identifier: a uvarint that must be a positive
// graph.ID (zero, and values that would wrap negative, are rejected).
func readID(r *bitio.Reader) (graph.ID, bool) {
	id, err := r.ReadUvarint()
	if err != nil || id == 0 || id > math.MaxInt64 {
		return 0, false
	}
	return graph.ID(id), true
}

// Verify implements cert.Scheme, following the paper's steps (1)-(4).
func (s *Scheme) Verify(v cert.View) bool {
	own, ok := DecodePayload(v.Cert)
	if !ok {
		return false
	}
	neighbors := make([]NeighborPayload, len(v.Neighbors))
	for i, nb := range v.Neighbors {
		np, ok := DecodePayload(nb.Cert)
		if !ok {
			return false
		}
		neighbors[i] = NeighborPayload{ID: nb.ID, P: np}
	}
	return CheckPayloads(s.T, v.ID, own, neighbors)
}

// NeighborPayload pairs a neighbour identifier with its decoded payload.
type NeighborPayload struct {
	ID graph.ID
	P  Payload
}

// CheckPayloads runs the paper's verification steps (1)-(4) on decoded
// payloads. It is the reusable core of Verify, embedded verbatim by the
// kernel certification of Theorem 2.6. It runs once per vertex per round,
// concurrently under the sharded simulator, so it must not allocate.
//
//certlint:hotpath
func CheckPayloads(t int, ownID graph.ID, own Payload, neighbors []NeighborPayload) bool {
	d := len(own.List)
	// Step 1: depth bound, list starts with own identifier, identifiers
	// distinct (honest ancestor lists never repeat). The list is at most t
	// long, so the quadratic scan beats allocating a set per call.
	if d == 0 || d > t || own.List[0] != ownID {
		return false
	}
	for i, id := range own.List {
		for _, prev := range own.List[:i] {
			if prev == id {
				return false
			}
		}
	}
	for _, np := range neighbors {
		if len(np.P.List) == 0 || np.P.List[0] != np.ID {
			return false
		}
	}
	// Step 2: every graph neighbour's list is a suffix of ours or extends
	// ours by a prefix (edges join ancestor/descendant pairs). This also
	// forces agreement on the root identifier.
	for _, np := range neighbors {
		if !suffixRelated(own.List, np.P.List) {
			return false
		}
	}
	// Step 3 is structural: DecodePayload enforced d-1 tree labels.
	// Step 4: per-ancestor spanning tree checks. Trees[j] is the tree of
	// the ancestor at list position j (position 0 is v itself); trees
	// exist for positions 0..d-2 (all non-root ancestors).
	for j := 0; j < d-1; j++ {
		if !verifyTreeSlot(ownID, own, neighbors, j) {
			return false
		}
	}
	return true
}

// verifyTreeSlot checks the spanning tree of the ancestor at list
// position j (the subtree membership test is "shares our (d-j)-suffix",
// i.e. the neighbour's list, which is a suffix or extension of ours,
// contains that ancestor at the same distance from the root).
func verifyTreeSlot(ownID graph.ID, own Payload, neighbors []NeighborPayload, j int) bool {
	d := len(own.List)
	suffixLen := d - j // length of the list suffix identifying G_a
	tl := own.Trees[j]
	if tl.Dist == 0 {
		// v claims to be the exit vertex: its ID must match the tree root
		// and some graph neighbour must be a's parent — the vertex whose
		// entire list equals our (suffixLen-1)-suffix.
		if tl.Root != ownID {
			return false
		}
		for _, np := range neighbors {
			if len(np.P.List) == suffixLen-1 && isSuffix(np.P.List, own.List) {
				return true
			}
		}
		return false
	}
	// Non-root tree vertex: need a graph neighbour in the same subtree
	// (same suffixLen-suffix) whose identifier equals our claimed parent,
	// with the same tree root and distance one less, in the tree slot
	// corresponding to the same ancestor.
	for _, np := range neighbors {
		if np.P.List[0] != tl.Parent {
			continue
		}
		nd := len(np.P.List)
		if nd < suffixLen || !sameSuffix(own.List, np.P.List, suffixLen) {
			continue
		}
		ntl := np.P.Trees[nd-suffixLen]
		if ntl.Root == tl.Root && ntl.Dist == tl.Dist-1 {
			return true
		}
	}
	return false
}

// suffixRelated reports whether one list is a suffix of the other.
func suffixRelated(a, b []graph.ID) bool {
	if len(a) <= len(b) {
		return isSuffix(a, b)
	}
	return isSuffix(b, a)
}

// isSuffix reports whether `short` equals the tail of `long`.
func isSuffix(short, long []graph.ID) bool {
	off := len(long) - len(short)
	if off < 0 {
		return false
	}
	for i := range short {
		if short[i] != long[off+i] {
			return false
		}
	}
	return true
}

// sameSuffix reports whether a and b share their last k entries.
func sameSuffix(a, b []graph.ID, k int) bool {
	if len(a) < k || len(b) < k {
		return false
	}
	for i := 1; i <= k; i++ {
		if a[len(a)-i] != b[len(b)-i] {
			return false
		}
	}
	return true
}
