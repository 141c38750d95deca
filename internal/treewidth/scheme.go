package treewidth

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/logic"
)

// Property is the MSO property certified on top of the width bound: a
// display name plus the compiled EMSO form that drives the Courcelle DP,
// the certificate layout and the radius-1 verification. The historic
// property names are aliases for library sentences (see propertyLibrary);
// PropertyFromFormula compiles arbitrary fragment sentences.
type Property struct {
	Name string
	Phi  *EMSO
}

// propertyLibrary is the single source of the tw-mso property list; the
// registry enum and the scheme dispatch both derive from it. Every entry
// is the compiled form of a library sentence, so the enum names are pure
// aliases of the formula path.
var propertyLibrary = []Property{
	{Name: "tw-bound", Phi: MustCompileEMSO(logic.TrueSentence())},
	{Name: "2-colorable", Phi: MustCompileEMSO(logic.TwoColorable())},
	{Name: "3-colorable", Phi: MustCompileEMSO(logic.ThreeColorable())},
}

// Properties lists the admissible tw-mso property names.
func Properties() []string {
	out := make([]string, len(propertyLibrary))
	for i, p := range propertyLibrary {
		out[i] = p.Name
	}
	return out
}

// PropertyByName resolves a property name.
func PropertyByName(name string) (Property, bool) {
	for _, p := range propertyLibrary {
		if p.Name == name {
			return p, true
		}
	}
	return Property{}, false
}

// PropertyFromFormula compiles an arbitrary sentence of the clique-local
// EMSO fragment into a certifiable property.
func PropertyFromFormula(f logic.Formula) (Property, error) {
	phi, err := CompileEMSO(f)
	if err != nil {
		return Property{}, err
	}
	return Property{Name: f.String(), Phi: phi}, nil
}

// MSOScheme is the decomposition-distributed certification of "G has a
// tree decomposition of width <= T and satisfies the property": the prover
// computes a decomposition, roots it, assigns every vertex the root bag of
// its trace as home bag, and hands each vertex its home bag id, the bag
// contents, its adjacency row over the bag, and the EMSO DP's witness word
// (the vertex's membership in each existentially quantified set). The
// verification is purely radius-1, against the neighbouring bags:
//
//   - membership and width: the vertex and the bag's canonical owner are
//     in the encoded bag, and the bag has at most T+1 entries;
//   - edge coverage: for every graph edge, the deeper home bag contains
//     the other endpoint (the trace-root rule), so one endpoint's id
//     appears in the other's bag;
//   - bag agreement: neighbours claiming the same home bag agree on depth
//     and contents; neighbours with different home bags are in strict
//     ancestor order (exactly one containment, container strictly
//     shallower), which rules out cycles among bag claims;
//   - adjacency rows: each vertex checks its own row against its actual
//     neighbourhood (it sees exactly its neighbours' identifiers), so an
//     accepted run's rows are ground truth for everyone who reads them;
//   - property: the verifier re-evaluates the compiled matrix on every
//     variable tuple drawn from the vertex and its neighbours. The
//     fragment's clique-locality means a violating tuple is always a
//     clique; its members are then mutual neighbours, the trace-root rule
//     pins each pair's adjacency inside some home bag, and the
//     self-verified rows expose it — so some member of the violating
//     clique evaluates the matrix on genuine adjacency values and rejects.
//
// Certificates are O(t log n) bits — bag id, up to t+1 identifiers, t+1
// row bits and m witness bits — plus a 16-bit guard binding certs to their
// vertex, so flips/replays/truncations are caught in one round (the
// self-stabilization deployment; semantic soundness never relies on it).
type MSOScheme struct {
	// T is the certified width bound.
	T int
	// Prop is the certified property (library alias or compiled formula).
	Prop Property
	// Decomps, when set, supplies the tree decomposition: a generator's
	// ground-truth witness (through DecompFunc) or a shared decomposition
	// cache. When nil, Prove computes one: the elimination heuristics
	// first, exact branch-and-bound for graphs up to ExactLimit vertices
	// when they miss the bound.
	Decomps DecompSource
}

// DecompSource supplies tree decompositions to the tw-mso prover. The
// context cancels any computation the lookup starts; the result is
// validated by the prover, so a source may hand back a too-wide or even
// wrong decomposition without breaking soundness.
type DecompSource interface {
	Decomposition(ctx context.Context, g *graph.Graph) (*Decomposition, error)
}

// DecompFunc adapts a context-free decomposition function — typically a
// generator's ground-truth witness — to DecompSource.
type DecompFunc func(g *graph.Graph) (*Decomposition, error)

// Decomposition implements DecompSource; the context is ignored.
func (f DecompFunc) Decomposition(_ context.Context, g *graph.Graph) (*Decomposition, error) {
	return f(g)
}

var (
	_ cert.Scheme = (*MSOScheme)(nil)
	_ cert.Parser = (*MSOScheme)(nil)
)

// Name implements cert.Scheme.
func (s *MSOScheme) Name() string { return fmt.Sprintf("tw-mso[%s]<=%d", s.Prop.Name, s.T) }

// phi returns the compiled property, defaulting to the trivial one so a
// zero-valued scheme still behaves (certifying the width bound alone).
func (s *MSOScheme) phi() *EMSO {
	if s.Prop.Phi != nil {
		return s.Prop.Phi
	}
	return propertyLibrary[0].Phi
}

// guardBits is the width of the per-certificate integrity guard.
const guardBits = 16

// maxBagEntries caps decoded bag sizes before the width bound is applied,
// so a hostile certificate cannot force a large allocation.
const maxBagEntries = 1 << 12

// maxID is the largest positive graph.ID; decoded identifiers above it
// would turn negative on conversion.
const maxID = math.MaxInt64

// Payload is the decoded certificate of one vertex.
type Payload struct {
	// BagID is the home bag's canonical identifier: the smallest vertex
	// ID homed at the bag (always a member of Bag).
	BagID graph.ID
	// Depth is the home bag's depth in the rooted, pruned decomposition.
	Depth uint64
	// Bag is the home bag's contents as sorted vertex IDs (<= T+1).
	Bag []graph.ID
	// Row is the owner's adjacency row over Bag: Row[i] reports whether
	// the owner is adjacent to Bag[i] (false at the owner's own slot).
	// Each vertex can check its own row exactly, which is what makes the
	// rows trustworthy evidence for everyone else's tuple checks.
	Row []bool
	// State is the property witness: the owner's m-bit set-membership
	// word, bit k = membership in the k-th existentially quantified set.
	State uint64
}

// encodePrefixTo writes the self-delimiting decomposition fields (bag id,
// depth, bag contents) — the exact counterpart of decodePrefix, shared by
// the honest encoder and the decomposition-aware tampers so the two can
// never drift apart.
func encodePrefixTo(w *bitio.Writer, p Payload) {
	w.WriteUvarint(uint64(p.BagID))
	w.WriteUvarint(p.Depth)
	w.WriteUvarint(uint64(len(p.Bag)))
	// Delta encoding enforces strictly increasing ids structurally; with
	// the decoder's range checks, any decodable bag is sorted,
	// duplicate-free and positive.
	prev := uint64(0)
	for i, id := range p.Bag {
		if i == 0 {
			w.WriteUvarint(uint64(id))
		} else {
			w.WriteUvarint(uint64(id) - prev - 1)
		}
		prev = uint64(id)
	}
}

// encodeBody writes the guarded part of the payload: the decomposition
// prefix, the adjacency row (one bit per bag entry) and the membership
// word (setBits bits).
func encodeBody(w *bitio.Writer, p Payload, setBits int) {
	encodePrefixTo(w, p)
	for i := range p.Bag {
		w.WriteBool(i < len(p.Row) && p.Row[i])
	}
	if setBits > 0 {
		w.WriteUint(p.State, setBits)
	}
}

// EncodePayload serializes the payload and appends the guard binding it to
// the owning vertex.
func EncodePayload(p Payload, owner graph.ID, setBits int) cert.Certificate {
	var w bitio.Writer
	encodePayloadTo(&w, p, owner, setBits)
	return w.Clone()
}

// encodePayloadTo resets w and writes the guarded certificate into it:
// the prover encodes n certificates through one buffer and copies each
// out of w.Bits().
func encodePayloadTo(w *bitio.Writer, p Payload, owner graph.ID, setBits int) {
	w.Reset()
	encodeBody(w, p, setBits)
	// Bits aliases the body written so far; the guard is computed before
	// it is appended, so it covers exactly the body.
	w.WriteUint(guardOf(owner, w.Bits()), guardBits)
}

// DecodePayload parses a certificate and checks its guard against the
// claimed owner; the whole certificate must be consumed.
func DecodePayload(c cert.Certificate, owner graph.ID, setBits int) (Payload, bool) {
	var p Payload
	if !decodePayloadInto(c, owner, setBits, &p) {
		return Payload{}, false
	}
	return p, true
}

// decodePayloadInto is DecodePayload into caller-owned storage: p's Bag
// and Row capacity is reused, which keeps the verifier — decoding one
// certificate per visible vertex per round — allocation-free in steady
// state. On failure p is left with truncated slices and must not be used.
func decodePayloadInto(c cert.Certificate, owner graph.ID, setBits int, p *Payload) bool {
	if len(c) < guardBits {
		return false
	}
	body := c[:len(c)-guardBits]
	r := bitio.NewReader(c[len(c)-guardBits:])
	guard, err := r.ReadUint(guardBits)
	if err != nil || guard != guardOf(owner, body) {
		return false
	}
	tail, ok := decodePrefixInto(body, p)
	if !ok {
		return false
	}
	br := bitio.NewReader(tail)
	p.Row = p.Row[:0]
	for i := 0; i < len(p.Bag); i++ {
		b, err := br.ReadBool()
		if err != nil {
			return false
		}
		p.Row = append(p.Row, b)
	}
	p.State = 0
	if setBits > 0 {
		state, err := br.ReadUint(setBits)
		if err != nil {
			return false
		}
		p.State = state
	}
	return br.Remaining() == 0
}

// decodePrefix parses the self-delimiting decomposition fields (bag id,
// depth, bag contents) off the body and returns the unparsed tail bits —
// the row and property payload, which decomposition-aware tampers carry
// through unchanged.
func decodePrefix(body []byte) (Payload, []byte, bool) {
	var p Payload
	tail, ok := decodePrefixInto(body, &p)
	if !ok {
		return Payload{}, nil, false
	}
	return p, tail, true
}

// decodePrefixInto is decodePrefix into caller-owned storage (p.Bag
// capacity is reused).
func decodePrefixInto(body []byte, p *Payload) ([]byte, bool) {
	r := bitio.NewReader(body)
	bagID, err := r.ReadUvarint()
	if err != nil || bagID == 0 || bagID > maxID {
		return nil, false
	}
	p.BagID = graph.ID(bagID)
	if p.Depth, err = r.ReadUvarint(); err != nil {
		return nil, false
	}
	size, err := r.ReadUvarint()
	if err != nil || size == 0 || size > maxBagEntries {
		return nil, false
	}
	p.Bag = p.Bag[:0]
	prev := uint64(0)
	for i := 0; i < int(size); i++ {
		v, err := r.ReadUvarint()
		if err != nil {
			return nil, false
		}
		if i == 0 {
			if v == 0 || v > maxID {
				return nil, false
			}
			prev = v
		} else {
			// prev+v+1 must stay a positive graph.ID: a delta past
			// maxID-prev would wrap into the negative IDs (or past
			// uint64) and unsort the bag.
			if v >= maxID-prev {
				return nil, false
			}
			prev += v + 1
		}
		p.Bag = append(p.Bag, graph.ID(prev))
	}
	return body[len(body)-r.Remaining():], true
}

// guardOf folds the owner identifier and the body bits into the guard
// word (FNV-1a), binding a certificate to its vertex: a swapped, replayed
// or bit-flipped certificate fails the recomputation at the receiving
// vertex and its neighbours.
func guardOf(owner graph.ID, body []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	o := uint64(owner)
	for i := 0; i < 8; i++ {
		h ^= o & 0xff
		h *= prime64
		o >>= 8
	}
	for _, b := range body {
		h ^= uint64(b & 1)
		h *= prime64
	}
	return h & (1<<guardBits - 1)
}

// Holds implements cert.Scheme: the graph admits a tree decomposition of
// width at most T and satisfies the property (decided by the EMSO DP over
// a nice decomposition). The width part is resolved exactly like Prove's
// (Decomps first, then heuristics, then exact branch-and-bound up to
// ExactLimit vertices) except that a proven too-wide graph answers false
// instead of erroring; only graphs the solvers cannot decide report an
// error.
func (s *MSOScheme) Holds(g *graph.Graph) (bool, error) {
	if g.N() == 0 || !g.Connected() {
		return false, fmt.Errorf("treewidth: %s: graph must be connected and non-empty", s.Name())
	}
	ctx := context.TODO()
	d, err := s.decomposition(ctx, g)
	if err != nil {
		if errors.Is(err, errTooWide) {
			return false, nil
		}
		return false, err
	}
	nice, err := MakeNiceCtx(ctx, d, 0)
	if err != nil {
		return false, err
	}
	_, ok, err := SolveEMSOCtx(ctx, g, nice, s.phi())
	if err != nil {
		return false, err
	}
	return ok, nil
}

// errTooWide marks decomposition failures that are proofs of a
// no-instance (exact treewidth above the bound), as opposed to inputs the
// solvers cannot decide.
var errTooWide = errors.New("treewidth exceeds the certified bound")

// decomposition resolves the width-<=T decomposition both Prove and Holds
// run on: the source's (validated; a too-wide or failing witness falls
// back to computation), otherwise the better heuristic, otherwise exact
// branch-and-bound for graphs up to ExactLimit vertices. A proven
// no-instance returns an error wrapping errTooWide.
func (s *MSOScheme) decomposition(ctx context.Context, g *graph.Graph) (*Decomposition, error) {
	if s.Decomps != nil {
		d, err := s.Decomps.Decomposition(ctx, g)
		if cerr, ok := fault.Cancelled(err); ok {
			// Cancellation is the caller's signal, not a witness failure:
			// do not fall through to recomputing.
			return nil, cerr
		}
		if err == nil {
			cp := fault.NewCheckpoint(ctx, "decompose")
			if verr := validateCp(&cp, g, d); verr != nil {
				if cerr, ok := fault.Cancelled(verr); ok {
					return nil, cerr
				}
				return nil, fmt.Errorf("treewidth: provided decomposition: %w", verr)
			}
			if d.Width() <= s.T {
				return d, nil
			}
		}
		// A missing or too-wide witness is not a proof of anything;
		// fall through to computing one.
	}
	d, _, err := HeuristicCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	if d.Width() <= s.T {
		return d, nil
	}
	if g.N() > ExactLimit {
		return nil, fmt.Errorf("treewidth: %s: no decomposition of width <= %d found for n=%d (heuristic; exact limited to %d vertices)",
			s.Name(), s.T, g.N(), ExactLimit)
	}
	w, dx, err := ExactCtx(ctx, g)
	if err != nil {
		return nil, err
	}
	if w > s.T {
		return nil, fmt.Errorf("treewidth: %s: width is %d: %w", s.Name(), w, errTooWide)
	}
	return dx, nil
}

// Prove implements cert.Scheme.
func (s *MSOScheme) Prove(g *graph.Graph) (cert.Assignment, error) {
	return s.ProveCtx(context.Background(), g)
}

// ProveCtx implements cert.CtxProver: the full prove path — resolving
// the decomposition, making it nice, the EMSO DP, the encode loop —
// runs under cooperative cancellation and returns a
// *fault.CancelledError once ctx is done.
func (s *MSOScheme) ProveCtx(ctx context.Context, g *graph.Graph) (cert.Assignment, error) {
	if g.N() == 0 || !g.Connected() {
		return nil, fmt.Errorf("treewidth: %s: graph must be connected and non-empty", s.Name())
	}
	d, err := s.decomposition(ctx, g)
	if err != nil {
		return nil, err
	}
	payloads, err := BuildPayloadsCtx(ctx, g, d, Property{Name: s.Prop.Name, Phi: s.phi()})
	if err != nil {
		return nil, err
	}
	// Certificates are cut from shared byte blocks sized for the
	// vertices still to encode at the current certificate's length,
	// capped: a tiny prove allocates a tiny block.
	n := g.N()
	a := make(cert.Assignment, n)
	var w bitio.Writer
	var slab []byte
	setBits := s.phi().NumSets()
	for v, p := range payloads {
		encodePayloadTo(&w, p, g.IDOf(v), setBits)
		bits := w.Bits()
		a[v] = carve(&slab, bits, min((n-v)*len(bits), maxCertSlab))
	}
	return a, nil
}

// maxCertSlab caps the byte blocks ProveCtx cuts certificates from.
const maxCertSlab = 1 << 20

// BuildPayloadsCtx assembles the per-vertex certificates from a valid
// decomposition of sufficient width: root it, assign home bags (trace
// roots), prune bags that are nobody's home (safe: such a bag's contents
// reappear in its parent), name each remaining bag after its smallest
// homed vertex id, and attach each vertex's adjacency row over its home
// bag and its EMSO witness word. Cooperative cancellation reaches the
// nice conversion, the EMSO DP and the assembly loop.
func BuildPayloadsCtx(ctx context.Context, g *graph.Graph, d *Decomposition, prop Property) ([]Payload, error) {
	n := g.N()
	parent, depth, order, err := d.Rooted(0)
	if err != nil {
		return nil, err
	}
	home, err := d.HomeBags(n, depth)
	if err != nil {
		return nil, err
	}
	// Canonical owner id per home bag.
	owner := make([]graph.ID, d.NumBags())
	for v := 0; v < n; v++ {
		b := home[v]
		id := g.IDOf(v)
		if owner[b] == 0 || id < owner[b] {
			owner[b] = id
		}
	}
	// Pruned depth: count only home-bag ancestors. Top-down over the BFS
	// order, tracking each bag's nearest home ancestor.
	hanc := make([]int, d.NumBags())
	pruned := make([]uint64, d.NumBags())
	for _, b := range order {
		pb := parent[b]
		anc := -1
		if pb >= 0 {
			anc = hanc[pb]
			if owner[pb] != 0 {
				anc = pb
			}
		}
		hanc[b] = anc
		if owner[b] != 0 {
			if anc >= 0 {
				pruned[b] = pruned[anc] + 1
			} else {
				pruned[b] = 0
			}
		}
	}
	// Property witness: the EMSO DP's membership words (all zero for a
	// set-free property, but the DP still decides the universal matrix).
	phi := prop.Phi
	if phi == nil {
		phi = propertyLibrary[0].Phi
	}
	nice, err := MakeNiceCtx(ctx, d, 0)
	if err != nil {
		return nil, err
	}
	words, ok, err := SolveEMSOCtx(ctx, g, nice, phi)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("treewidth: tw-mso[%s]: property does not hold (nothing to certify)", prop.Name)
	}
	// Home bags' sorted ID lists, dense by bag and cut from one arena,
	// and every vertex's row, cut from one slab: both sized exactly.
	idEntries, rowEntries := 0, 0
	for b, bag := range d.Bags {
		if owner[b] != 0 {
			idEntries += len(bag)
		}
	}
	for _, b := range home {
		rowEntries += len(d.Bags[b])
	}
	bagIDs := make([][]graph.ID, d.NumBags())
	idArena := make([]graph.ID, 0, idEntries)
	rows := make([]bool, rowEntries)
	payloads := make([]Payload, n)
	cp := fault.NewCheckpoint(ctx, "prove")
	for v := 0; v < n; v++ {
		if err := cp.Check(); err != nil {
			return nil, err
		}
		b := home[v]
		ids := bagIDs[b]
		if ids == nil {
			lo := len(idArena)
			for _, u := range d.Bags[b] {
				idArena = append(idArena, g.IDOf(u))
			}
			ids = idArena[lo:len(idArena):len(idArena)]
			slices.Sort(ids)
			bagIDs[b] = ids
		}
		row := rows[:len(ids):len(ids)]
		rows = rows[len(ids):]
		for i, id := range ids {
			if u, exists := g.IndexOf(id); exists && u != v {
				row[i] = g.HasEdge(v, u)
			}
		}
		payloads[v] = Payload{
			BagID: owner[b],
			Depth: pruned[b],
			Bag:   ids,
			Row:   row,
			State: uint64(words[v]),
		}
	}
	return payloads, nil
}

// ParseRange implements cert.Parser: it decodes the certificates of
// vertices [lo, hi) once for the whole round, so Verify reads every
// neighbour's payload from the table instead of decoding it again in
// each of the deg+1 views it appears in. The range's payloads come from
// one slab and their bags and rows from shared blocks, so the pass does
// not allocate per vertex. An undecodable certificate gets the
// unparsable marker, which every view containing it rejects — as the
// decode inside Verify would.
func (s *MSOScheme) ParseRange(g *graph.Graph, a cert.Assignment, lo, hi int, table []any) {
	m := s.phi().NumSets()
	payloads := make([]Payload, hi-lo)
	// Honest bags hold at most T+1 ids; the block size only has to make
	// the block allocations rare, not bound the bags.
	block := min((hi-lo)*(s.T+1), maxSlabBlock)
	var ids []graph.ID
	var rows []bool
	var buf Payload
	for v := lo; v < hi; v++ {
		if !decodePayloadInto(a[v], g.IDOf(v), m, &buf) {
			table[v] = unparsable{}
			continue
		}
		p := &payloads[v-lo]
		*p = Payload{
			BagID: buf.BagID,
			Depth: buf.Depth,
			Bag:   carve(&ids, buf.Bag, block),
			Row:   carve(&rows, buf.Row, block),
			State: buf.State,
		}
		table[v] = p
	}
}

// maxSlabBlock caps the shared bag and row blocks ParseRange carves
// from, in entries.
const maxSlabBlock = 1 << 16

// carve copies src into the free tail of *slab, starting a new block of
// at least block entries when the tail is too short, and returns the
// copy capped at its length (an append to it cannot spill into the next
// payload's entries).
func carve[T any](slab *[]T, src []T, block int) []T {
	if cap(*slab)-len(*slab) < len(src) {
		*slab = make([]T, 0, max(block, len(src)))
	}
	lo := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[lo:len(*slab):len(*slab)]
}

// unparsable is the parse-table entry of a certificate that does not
// decode.
type unparsable struct{}

// payloadOf resolves one vertex's payload for Verify: the round's parse
// when the runner supplied one, otherwise a decode of c into buf.
func payloadOf(id graph.ID, c cert.Certificate, parsed any, setBits int, buf *Payload) (*Payload, bool) {
	switch p := parsed.(type) {
	case *Payload:
		return p, true
	case nil:
		return buf, decodePayloadInto(c, id, setBits, buf)
	default:
		return nil, false
	}
}

// verifyScratch is the recycled working memory of one Verify call: the
// payloads decoded when the view carries no parse, the resolved
// neighbour payloads and the point tables. Verify runs once per vertex
// per round — and concurrently under the sharded simulator — so each
// call checks a scratch out of the pool and every buffer is reused
// across calls instead of reallocated.
type verifyScratch struct {
	own       Payload
	decoded   []Payload
	neighbors []*Payload
	ids       []graph.ID
	words     []uint64
	points    []int
}

var verifyScratchPool = sync.Pool{New: func() any { return &verifyScratch{} }}

// release returns the scratch to the pool without the round's parsed
// payloads: a pooled scratch must not keep a parse table alive.
func (sc *verifyScratch) release() {
	clear(sc.neighbors)
	verifyScratchPool.Put(sc)
}

// Verify implements cert.Scheme; see the type comment for the check list.
// Payloads come from the view's Parsed entries when a runner parsed the
// round (ParseRange) and are decoded from the certificates otherwise:
// the checks below are the same either way.
func (s *MSOScheme) Verify(v cert.View) bool {
	phi := s.phi()
	m := phi.NumSets()
	sc := verifyScratchPool.Get().(*verifyScratch)
	defer sc.release()
	own, ok := payloadOf(v.ID, v.Cert, v.Parsed, m, &sc.own)
	if !ok {
		return false
	}
	if len(own.Bag) > s.T+1 {
		return false
	}
	if !containsID(own.Bag, v.ID) || !containsID(own.Bag, own.BagID) {
		return false
	}
	// The bag is named after its smallest homed vertex, so no member homed
	// at it has a smaller id.
	if own.BagID > v.ID {
		return false
	}
	// The adjacency row must match the vertex's actual neighbourhood —
	// fully checkable locally, which is what lets everyone else trust it.
	for i, id := range own.Bag {
		_, isNb := v.NeighborByID(id)
		if id == v.ID {
			isNb = false
		}
		if own.Row[i] != isNb {
			return false
		}
	}
	for len(sc.decoded) < len(v.Neighbors) {
		sc.decoded = append(sc.decoded, Payload{})
	}
	sc.neighbors = sc.neighbors[:0]
	for i, nb := range v.Neighbors {
		pu, ok := payloadOf(nb.ID, nb.Cert, nb.Parsed, m, &sc.decoded[i])
		if !ok {
			return false
		}
		sc.neighbors = append(sc.neighbors, pu)
		if len(pu.Bag) > s.T+1 || !containsID(pu.Bag, nb.ID) {
			return false
		}
		uIn := containsID(own.Bag, nb.ID)
		vIn := containsID(pu.Bag, v.ID)
		if !uIn && !vIn {
			return false // edge covered by no claimed bag
		}
		if own.BagID == pu.BagID {
			// Same home bag: full agreement on the bag.
			if own.Depth != pu.Depth || !equalIDs(own.Bag, pu.Bag) {
				return false
			}
		} else {
			// Different home bags lie on one root path: mutual containment
			// would force the same home, and the containing side is the
			// strictly shallower one.
			if uIn && vIn {
				return false
			}
			if uIn && pu.Depth >= own.Depth {
				return false
			}
			if vIn && own.Depth >= pu.Depth {
				return false
			}
		}
	}
	neighbors := sc.neighbors
	// Property: re-evaluate the matrix on every tuple over {v} ∪ N(v).
	// Point 0 is v itself, point i+1 its i-th neighbour. Adjacency between
	// two neighbours is read off their self-verified rows through the
	// trace-root rule: the deeper-homed endpoint of any real edge carries
	// the other in its bag, so an accepted run exposes every real edge
	// among the candidates and claims no fake ones it would need.
	points := 1 + len(v.Neighbors)
	sc.ids = append(sc.ids[:0], v.ID)
	sc.words = append(sc.words[:0], own.State)
	sc.points = sc.points[:0]
	for i, nb := range v.Neighbors {
		sc.ids = append(sc.ids, nb.ID)
		sc.words = append(sc.words, neighbors[i].State)
	}
	for p := 0; p < points; p++ {
		sc.points = append(sc.points, p)
	}
	ids, words := sc.ids, sc.words
	adj := func(a, b int) bool {
		if a == b {
			return false
		}
		if a == 0 || b == 0 {
			return true // every candidate but v itself is a neighbour of v
		}
		pa, pb := neighbors[a-1], neighbors[b-1]
		if i := searchID(pa.Bag, ids[b]); i >= 0 && pa.Row[i] {
			return true
		}
		if i := searchID(pb.Bag, ids[a]); i >= 0 && pb.Row[i] {
			return true
		}
		return false
	}
	member := func(set, point int) bool { return words[point]>>uint(set)&1 == 1 }
	// Enumerate only tuples whose points are pairwise equal or adjacent
	// under the evidence oracle: clique-locality makes the matrix
	// vacuously true on every other tuple, and the pruning keeps a
	// high-degree vertex's check near O(deg) instead of O(deg^r). The
	// shared clique-tuple enumerator runs over point indices here
	// (mustInclude -1: every tuple the vertex can see is checked).
	tc := tupleCheck{phi: phi, bag: sc.points, adj: adj, member: member, mustInclude: -1}
	return tc.rec(0, false)
}

// containsID reports membership in a sorted id slice.
func containsID(ids []graph.ID, id graph.ID) bool {
	return searchID(ids, id) >= 0
}

// searchID returns the position of id in a sorted id slice, or -1.
func searchID(ids []graph.ID, id graph.ID) int {
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if i < len(ids) && ids[i] == id {
		return i
	}
	return -1
}

func equalIDs(a, b []graph.ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
