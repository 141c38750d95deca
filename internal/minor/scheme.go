package minor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/logic"
	"repro/internal/rooted"
	"repro/internal/treedepth"
)

// NewPathMinorFreeScheme returns the Corollary 2.7 certification of
// P_t-minor-freeness: the property is FO ("no path on t vertices"), and
// yes-instances have treedepth at most t-1 witnessed by any DFS tree, so
// the Theorem 2.6 scheme applies with O(t log n + f) bits.
func NewPathMinorFreeScheme(t int) (*kernel.MSOScheme, error) {
	if t < 2 {
		return nil, fmt.Errorf("minor: P_t-minor-freeness needs t >= 2")
	}
	formula := logic.Not{F: logic.ContainsPath(t)}
	s, err := kernel.NewMSOScheme(t-1, formula)
	if err != nil {
		return nil, err
	}
	// The FO form has t quantifiers; evaluating it by brute force on
	// kernels is exponential in t, so the combinatorial longest-path
	// predicate (invariant under ~_t by the same FO form) stands in.
	s.Predicate = func(g *graph.Graph) (bool, error) {
		return !HasPathMinor(g, t), nil
	}
	// A DFS model always has depth <= longest path <= t-1 on
	// yes-instances, regardless of n.
	s.ModelProvider = func(g *graph.Graph) (*rooted.Tree, error) {
		return treedepth.BestDFSModel(g)
	}
	return s, nil
}

// CycleMinorFreeScheme certifies C_t-minor-freeness (no simple cycle with
// >= t vertices) with O(log n)-bit certificates per block membership.
//
// Certificate layout per vertex: the number of blocks containing it,
// then, per block: a level in the block-cut arborescence followed by the
// block's Theorem 2.6 certificate for "circumference < t" (treedepth
// bound t^2+1, rank t^2 — the FO form of the property is a finite
// disjunction over cycle lengths in [t, t^2)).
type CycleMinorFreeScheme struct {
	T int

	inner *kernel.MSOScheme
}

var _ cert.Scheme = (*CycleMinorFreeScheme)(nil)

// NewCycleMinorFreeScheme builds the composite scheme.
func NewCycleMinorFreeScheme(t int) (*CycleMinorFreeScheme, error) {
	if t < 3 {
		return nil, fmt.Errorf("minor: C_t-minor-freeness needs t >= 3")
	}
	bound := t*t + 1
	// The per-block property "every simple cycle has < t vertices" is an
	// FO sentence of rank < t^2 on P_{t^2}-minor-free blocks; use that
	// rank with the combinatorial evaluator.
	inner, err := kernel.NewMSOScheme(bound, logic.Not{F: logic.ContainsPath(t * t)})
	if err != nil {
		return nil, err
	}
	inner.Rank = t * t
	tt := t
	inner.Predicate = func(g *graph.Graph) (bool, error) {
		return circumferenceBelow(g, tt) && !HasPathMinor(g, tt*tt), nil
	}
	return &CycleMinorFreeScheme{T: t, inner: inner}, nil
}

// Name implements cert.Scheme.
func (s *CycleMinorFreeScheme) Name() string { return fmt.Sprintf("C%d-minor-free", s.T) }

// Holds implements cert.Scheme.
func (s *CycleMinorFreeScheme) Holds(g *graph.Graph) (bool, error) {
	if err := validateConnected(g); err != nil {
		return false, err
	}
	return !HasCycleMinor(g, s.T), nil
}

// blockInfo describes one block during proving.
type blockInfo struct {
	vertices []int // original indices
	level    int
	gate     int // original index of the gate cut vertex (elimination root)
}

// Prove implements cert.Scheme.
func (s *CycleMinorFreeScheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	holds, err := s.Holds(g)
	if err != nil {
		return nil, err
	}
	if !holds {
		return nil, fmt.Errorf("minor: %s: property does not hold", s.Name())
	}
	blocks := g.BiconnectedComponents()
	sortBlocksDeterministic(blocks)
	if len(blocks) == 0 {
		// Single vertex: one empty-block certificate.
		if g.N() != 1 {
			return nil, fmt.Errorf("minor: edgeless multi-vertex graph cannot be connected")
		}
		return cert.Assignment{encodeEntries(nil)}, nil
	}
	infos, err := buildBlockTree(g, blocks)
	if err != nil {
		return nil, err
	}
	// Per-block certificates from the inner Theorem 2.6 scheme; the
	// block's elimination tree is rooted at its gate.
	perBlock := make([]cert.Assignment, len(infos))
	blockOldToNew := make([]map[int]int, len(infos))
	for i, info := range infos {
		sub, oldIdx := g.InducedSubgraph(info.vertices)
		oldToNew := map[int]int{}
		for newIdx, old := range oldIdx {
			oldToNew[old] = newIdx
		}
		blockOldToNew[i] = oldToNew
		gateNew := oldToNew[info.gate]
		s.inner.ModelProvider = func(gg *graph.Graph) (*rooted.Tree, error) {
			return gateRootedModel(gg, gateNew)
		}
		a, err := s.inner.Prove(sub)
		if err != nil {
			return nil, fmt.Errorf("minor: block %d: %w", i, err)
		}
		perBlock[i] = a
	}
	// Assemble per-vertex certificates.
	vertexBlocks := make([][]int, g.N())
	for i, info := range infos {
		for _, v := range info.vertices {
			vertexBlocks[v] = append(vertexBlocks[v], i)
		}
	}
	out := make(cert.Assignment, g.N())
	for v := 0; v < g.N(); v++ {
		entries := make([]vertexBlockEntry, len(vertexBlocks[v]))
		for i, bi := range vertexBlocks[v] {
			entries[i] = vertexBlockEntry{
				level:     infos[bi].level,
				nonce:     blockNonce(g, infos[bi]),
				blockCert: perBlock[bi][blockOldToNew[bi][v]],
			}
		}
		out[v] = encodeEntries(entries)
	}
	return out, nil
}

// buildBlockTree roots the block-cut tree at block 0 and assigns levels
// and gates: the gate of a non-root block is the cut vertex it shares
// with its parent; the root block's gate is its minimum vertex.
func buildBlockTree(g *graph.Graph, blocks [][]int) ([]blockInfo, error) {
	infos := make([]blockInfo, len(blocks))
	whichBlocks := make([][]int, g.N())
	for i, b := range blocks {
		infos[i] = blockInfo{vertices: b, level: -1, gate: -1}
		for _, v := range b {
			whichBlocks[v] = append(whichBlocks[v], i)
		}
	}
	infos[0].level = 0
	infos[0].gate = blocks[0][0]
	queue := []int{0}
	for len(queue) > 0 {
		bi := queue[0]
		queue = queue[1:]
		for _, v := range infos[bi].vertices {
			for _, other := range whichBlocks[v] {
				if infos[other].level == -1 {
					infos[other].level = infos[bi].level + 1
					infos[other].gate = v
					queue = append(queue, other)
				}
			}
		}
	}
	for i, info := range infos {
		if info.level == -1 {
			return nil, fmt.Errorf("minor: block %d unreachable in block-cut structure", i)
		}
	}
	return infos, nil
}

// blockNonce disambiguates sibling blocks that share a gate and a level:
// the smallest member identifier different from the gate's. Blocks always
// have at least two vertices (one edge), so a non-gate member exists.
func blockNonce(g *graph.Graph, info blockInfo) graph.ID {
	var nonce graph.ID
	for _, v := range info.vertices {
		if v == info.gate {
			continue
		}
		id := g.IDOf(v)
		if nonce == 0 || id < nonce {
			nonce = id
		}
	}
	if nonce == 0 {
		nonce = g.IDOf(info.gate)
	}
	return nonce
}

// gateRootedModel builds a coherent elimination tree rooted at the gate:
// the gate on top, optimal models of the components below it. Depth is at
// most 1 + td(G - gate) <= td(G) + 1.
func gateRootedModel(g *graph.Graph, gate int) (*rooted.Tree, error) {
	parents := make([]int, g.N())
	for i := range parents {
		parents[i] = -2
	}
	parents[gate] = -1
	if g.N() > 1 {
		rest, oldIdx := g.RemoveVertex(gate)
		for _, comp := range rest.Components() {
			compOld := make([]int, len(comp))
			for i, c := range comp {
				compOld[i] = oldIdx[c]
			}
			sub, subOld := g.InducedSubgraph(compOld)
			model, err := treedepth.Model(sub, nil)
			if err != nil {
				return nil, err
			}
			for v := 0; v < model.N(); v++ {
				if model.Parent(v) == -1 {
					parents[subOld[v]] = gate
				} else {
					parents[subOld[v]] = subOld[model.Parent(v)]
				}
			}
		}
	}
	return rooted.FromParents(parents)
}

// vertexBlockEntry is one decoded per-block record.
type vertexBlockEntry struct {
	level     int
	nonce     graph.ID
	blockCert cert.Certificate
	// decoded payload root (the block identifier is the root ID of the
	// block's elimination tree payload — the gate).
	gateID  graph.ID
	listLen int
}

// encodeEntries is the certificate layout decodeEntries parses: the entry
// count, then per entry its level, nonce and length-prefixed block
// certificate.
func encodeEntries(entries []vertexBlockEntry) cert.Certificate {
	var w bitio.Writer
	w.WriteUvarint(uint64(len(entries)))
	for _, e := range entries {
		w.WriteUvarint(uint64(e.level))
		w.WriteUvarint(uint64(e.nonce))
		w.WriteUvarint(uint64(len(e.blockCert)))
		for _, bit := range e.blockCert {
			w.WriteBit(bit)
		}
	}
	return w.Clone()
}

// minEntryBits is the shortest encoded block entry: its level, nonce and
// length are uvarints of at least one bit each.
const minEntryBits = 3

// decodeEntries parses a vertex's block entries. Every nonce and gate it
// returns is a positive graph.ID.
func decodeEntries(c cert.Certificate) ([]vertexBlockEntry, bool) {
	r := bitio.NewReader(c)
	count, err := r.ReadUvarint()
	// An entry is at least minEntryBits long, and a block certificate at
	// most as long as the bits left: neither length prefix can make the
	// decoder allocate more than the certificate itself can fill.
	if err != nil || count > 1<<20 || count > uint64(r.Remaining()/minEntryBits) {
		return nil, false
	}
	entries := make([]vertexBlockEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		level, err := r.ReadUvarint()
		if err != nil {
			return nil, false
		}
		nonce, err := r.ReadUvarint()
		if err != nil || nonce == 0 || nonce > math.MaxInt64 {
			return nil, false
		}
		length, err := r.ReadUvarint()
		if err != nil || length > 1<<24 || length > uint64(r.Remaining()) {
			return nil, false
		}
		bits := make(cert.Certificate, length)
		for j := range bits {
			b, err := r.ReadBit()
			if err != nil {
				return nil, false
			}
			bits[j] = b
		}
		entry := vertexBlockEntry{level: int(level), nonce: graph.ID(nonce), blockCert: bits}
		// Peek the treedepth payload for the gate ID (root of the list).
		p, ok := treedepth.DecodePayloadFrom(bitio.NewReader(bits))
		if !ok {
			return nil, false
		}
		entry.gateID = p.List[len(p.List)-1]
		entry.listLen = len(p.List)
		entries = append(entries, entry)
	}
	if r.Remaining() != 0 {
		return nil, false
	}
	return entries, true
}

// Verify implements cert.Scheme.
func (s *CycleMinorFreeScheme) Verify(v cert.View) bool {
	own, ok := decodeEntries(v.Cert)
	if !ok {
		return false
	}
	if len(own) == 0 {
		// Only an isolated single-vertex graph may have no blocks.
		return v.Degree() == 0
	}
	type nbEntry struct {
		id      graph.ID
		entries []vertexBlockEntry
	}
	neighbors := make([]nbEntry, len(v.Neighbors))
	for i, nb := range v.Neighbors {
		ne, ok := decodeEntries(nb.Cert)
		if !ok {
			return false
		}
		neighbors[i] = nbEntry{id: nb.ID, entries: ne}
	}
	// Block identity = (gateID, level): siblings sharing a gate at the
	// same level would be mergeable, which is harmless (see package doc),
	// but duplicate identities within one vertex are malformed.
	type blockKey struct {
		gate  graph.ID
		level int
		nonce graph.ID
	}
	ownBlocks := map[blockKey]vertexBlockEntry{}
	for _, e := range own {
		k := blockKey{e.gateID, e.level, e.nonce}
		if _, dup := ownBlocks[k]; dup {
			return false
		}
		ownBlocks[k] = e
	}
	// R3: exactly one minimal level; all other blocks sit one level
	// deeper and are gated at v itself (v is the root of their payload).
	minLevel := own[0].level
	for _, e := range own {
		if e.level < minLevel {
			minLevel = e.level
		}
	}
	minCount := 0
	for _, e := range own {
		switch {
		case e.level == minLevel:
			minCount++
		case e.level == minLevel+1:
			if e.gateID != v.ID {
				return false
			}
		default:
			return false
		}
	}
	if minCount != 1 {
		return false
	}
	// Every edge must lie in exactly one shared block; run the inner
	// verifier per block on the restricted view.
	for k, e := range ownBlocks {
		sub := cert.View{ID: v.ID, Cert: e.blockCert}
		for _, nb := range neighbors {
			shared := 0
			var sharedEntry vertexBlockEntry
			for _, ne := range nb.entries {
				if (blockKey{ne.gateID, ne.level, ne.nonce}) == k {
					shared++
					sharedEntry = ne
				}
			}
			if shared > 1 {
				return false
			}
			if shared == 1 {
				sub.Neighbors = append(sub.Neighbors, cert.NeighborView{ID: nb.id, Cert: sharedEntry.blockCert})
			}
		}
		if !s.inner.Verify(sub) {
			return false
		}
	}
	// Every neighbour must share at least one block with us (each edge
	// belongs to some block).
	for _, nb := range neighbors {
		found := false
		for _, ne := range nb.entries {
			if _, ok := ownBlocks[blockKey{ne.gateID, ne.level, ne.nonce}]; ok {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// sortBlocksDeterministic orders blocks for reproducible proofs.
func sortBlocksDeterministic(blocks [][]int) {
	sort.Slice(blocks, func(i, j int) bool {
		return blocks[i][0] < blocks[j][0]
	})
}
