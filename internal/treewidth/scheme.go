package treewidth

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
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
//     shallower). That orders each pair of neighbours only: two vertices
//     that share a bag without being adjacent never compare it, so the
//     claimed bags need not form one tree, and the width certificate is
//     not sound. On the treewidth-3 graph with edges 0-1 0-2 0-3 0-5 1-2
//     1-3 1-5 2-4 3-4, vertex v taking its certificate from the honest
//     tw-bound T=2 proof of G − e_v, where e = (1-2, 0-2, 3-4, 0-2, 1-3,
//     1-3) for v = 0..5, is accepted at every vertex;
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
//     The tuples come from the clique-tuple walk the DP's transition
//     tables and witness re-check share (cliqueTuples): the view's
//     evidence adjacency is built once from the neighbours' rows, at most
//     T+1 entries each, and every next tuple point is drawn from it, so a
//     vertex of degree d costs O((d+1)·(T+1)^(r−1)) adjacency probes for
//     r variables. A valid matrix, such as tw-bound's x = x, has no tuple
//     to find, and the check returns at once.
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
// depth, bag contents) — the exact counterpart of decodePrefixInto, shared by
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
	seal(w, owner)
}

// seal appends the guard binding the body written to w so far to owner.
// The honest encoder and the decomposition-aware tampers both seal
// through it, and unseal is its one inverse.
func seal(w *bitio.Writer, owner graph.ID) {
	// Bits aliases the body written so far; the guard is computed before
	// it is appended, so it covers exactly the body.
	w.WriteUint(guardOf(owner, w.Bits()), guardBits)
}

// unseal splits a certificate into its body and guard word; ok is false
// when the certificate is too short to carry a guard.
func unseal(c cert.Certificate) (body []byte, guard uint64, ok bool) {
	if len(c) < guardBits {
		return nil, 0, false
	}
	guard, err := bitio.NewReader(c[len(c)-guardBits:]).ReadUint(guardBits)
	return c[:len(c)-guardBits], guard, err == nil
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
	body, guard, ok := unseal(c)
	if !ok || guard != guardOf(owner, body) {
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

// decodePrefixInto parses the self-delimiting decomposition fields (bag
// id, depth, bag contents) off the body into p, reusing p.Bag's capacity,
// and returns the unparsed tail bits — the row and property payload,
// which decomposition-aware tampers carry through unchanged.
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

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// guardOf folds the owner identifier and the body bits into the guard
// word (FNV-1a, one step per body bit), binding a certificate to its
// vertex: a swapped, replayed or bit-flipped certificate fails the
// recomputation at the receiving vertex and its neighbours. Only bit 0
// of each body byte counts.
//
// The body is folded eight bits per step, with exactly the per-bit
// result. The prime is odd, so a step h = (h ^ b)·p moves h by
// δ·p with δ ∈ {-1, 0, +1} set by b and the parity of h, and that
// parity is h₀&1 XOR the bits read so far. Eight steps therefore give
// h₈ = h₀·p⁸ + guardStep[h₀&1][b₁…b₈]; one multiply gathers bit 0 of
// eight bytes into the table index (first byte lowest).
func guardOf(owner graph.ID, body []byte) uint64 {
	h := uint64(fnvOffset64)
	o := uint64(owner)
	for i := 0; i < 8; i++ {
		h ^= o & 0xff
		h *= fnvPrime64
		o >>= 8
	}
	for len(body) >= 8 {
		bits := (binary.LittleEndian.Uint64(body) & 0x0101010101010101) * 0x0102040810204080 >> 56
		h = h*guardPrime8 + guardStep[h&1][bits]
		body = body[8:]
	}
	for _, b := range body {
		h ^= uint64(b & 1)
		h *= fnvPrime64
	}
	return h & (1<<guardBits - 1)
}

// guardPrime8 and guardStep drive guardOf's eight-bit steps: p⁸, and for
// each start parity and byte of eight body bits the offset h₈ − h₀·p⁸.
var guardPrime8, guardStep = guardTables()

func guardTables() (p8 uint64, step [2][256]uint64) {
	p8 = 1
	for i := 0; i < 8; i++ {
		p8 *= fnvPrime64
	}
	for par := uint64(0); par < 2; par++ {
		for bits := uint64(0); bits < 256; bits++ {
			h := par
			for k := 0; k < 8; k++ {
				h ^= bits >> k & 1
				h *= fnvPrime64
			}
			step[par][bits] = h - par*p8
		}
	}
	return p8, step
}

// Holds implements cert.Scheme: the graph admits a tree decomposition of
// width at most T and satisfies the property (decided by the EMSO DP over
// a nice decomposition). It runs Prove's solve path, except that a proven
// too-wide graph answers false instead of erroring; only graphs the
// solvers cannot decide report an error.
func (s *MSOScheme) Holds(g *graph.Graph) (bool, error) {
	_, _, _, ok, err := s.solve(context.TODO(), g)
	if errors.Is(err, errTooWide) {
		return false, nil
	}
	return ok, err
}

// errTooWide marks decomposition failures that are proofs of a
// no-instance (exact treewidth above the bound), as opposed to inputs the
// solvers cannot decide.
var errTooWide = errors.New("treewidth exceeds the certified bound")

// solve is the one path Prove and Holds share: the validated width-<=T
// decomposition and its rooting at bag 0, the nice conversion on that
// rooting, and the EMSO DP. It returns the DP's per-vertex membership
// words and whether the property holds (nil words when it does not).
func (s *MSOScheme) solve(ctx context.Context, g *graph.Graph) (*Decomposition, rooting, []uint8, bool, error) {
	if g.N() == 0 || !g.Connected() {
		return nil, rooting{}, nil, false, fmt.Errorf("treewidth: %s: graph must be connected and non-empty", s.Name())
	}
	d, r, err := s.decomposition(ctx, g)
	if err != nil {
		return nil, rooting{}, nil, false, err
	}
	cp := fault.NewCheckpoint(ctx, "decompose")
	nice, err := makeNice(&cp, d, r)
	if err != nil {
		return nil, rooting{}, nil, false, err
	}
	words, ok, err := SolveEMSOCtx(ctx, g, nice, s.phi())
	return d, r, words, ok, err
}

// decomposition resolves the width-<=T decomposition solve runs on: the
// source's (a too-wide or failing witness falls back to computation),
// otherwise the better heuristic, otherwise exact branch-and-bound for
// graphs up to ExactLimit vertices. Whichever it returns has been
// validated once, and it returns the rooting validation built with it. A
// proven no-instance returns an error wrapping errTooWide.
func (s *MSOScheme) decomposition(ctx context.Context, g *graph.Graph) (*Decomposition, rooting, error) {
	cp := fault.NewCheckpoint(ctx, "decompose")
	if s.Decomps != nil {
		d, err := s.Decomps.Decomposition(ctx, g)
		if cerr, ok := fault.Cancelled(err); ok {
			// Cancellation is the caller's signal, not a witness failure:
			// do not fall through to recomputing.
			return nil, rooting{}, cerr
		}
		if err == nil {
			r, verr := validateCp(&cp, g, d)
			if verr != nil {
				if cerr, ok := fault.Cancelled(verr); ok {
					return nil, rooting{}, cerr
				}
				return nil, rooting{}, fmt.Errorf("treewidth: provided decomposition: %w", verr)
			}
			if d.Width() <= s.T {
				return d, r, nil
			}
		}
		// A missing or too-wide witness is not a proof of anything;
		// fall through to computing one.
	}
	d, _, err := HeuristicCtx(ctx, g)
	if err != nil {
		return nil, rooting{}, err
	}
	if d.Width() > s.T {
		if g.N() > ExactLimit {
			return nil, rooting{}, fmt.Errorf("treewidth: %s: no decomposition of width <= %d found for n=%d (heuristic; exact limited to %d vertices)",
				s.Name(), s.T, g.N(), ExactLimit)
		}
		w, dx, err := ExactCtx(ctx, g)
		if err != nil {
			return nil, rooting{}, err
		}
		if w > s.T {
			return nil, rooting{}, fmt.Errorf("treewidth: %s: width is %d: %w", s.Name(), w, errTooWide)
		}
		d = dx
	}
	r, err := validateCp(&cp, g, d)
	if err != nil {
		return nil, rooting{}, err
	}
	return d, r, nil
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
	d, r, words, ok, err := s.solve(ctx, g)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("treewidth: tw-mso[%s]: property does not hold (nothing to certify)", s.Prop.Name)
	}
	payloads, err := buildPayloads(ctx, g, d, r, words)
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

// buildPayloads assembles the per-vertex certificates from a validated
// decomposition of sufficient width, its rooting at bag 0 and the EMSO
// DP's witness words: prune bags that are nobody's home (safe: such a
// bag's contents reappear in its parent), name each remaining bag after
// its smallest homed vertex id, and attach each vertex's adjacency row
// over its home bag and its witness word. The assembly loop checkpoints
// ctx.
func buildPayloads(ctx context.Context, g *graph.Graph, d *Decomposition, r rooting, words []uint8) ([]Payload, error) {
	n := g.N()
	// Canonical owner id per home bag.
	owner := make([]graph.ID, d.NumBags())
	for v, b := range r.home {
		id := g.IDOf(v)
		if owner[b] == 0 || id < owner[b] {
			owner[b] = id
		}
	}
	// Pruned depth: count only home-bag ancestors. Top-down over the BFS
	// order, tracking each bag's nearest home ancestor.
	hanc := make([]int32, d.NumBags())
	pruned := make([]uint64, d.NumBags())
	for _, b := range r.order {
		pb := r.parent[b]
		anc := int32(-1)
		if pb >= 0 {
			anc = hanc[pb]
			if owner[pb] != 0 {
				anc = pb
			}
		}
		hanc[b] = anc
		if owner[b] != 0 && anc >= 0 {
			pruned[b] = pruned[anc] + 1
		}
	}
	// Home bags' sorted ID lists, dense by bag and cut from one arena,
	// and every vertex's row, cut from one slab: both sized exactly.
	idEntries, rowEntries := 0, 0
	for b, bag := range d.Bags {
		if owner[b] != 0 {
			idEntries += len(bag)
		}
	}
	for _, b := range r.home {
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
		b := r.home[v]
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
// neighbour payloads and the view's evidence adjacency. Verify runs once
// per vertex per round — and concurrently under the sharded simulator —
// so each call checks a scratch out of the pool and every buffer is
// reused across calls instead of reallocated.
type verifyScratch struct {
	own       Payload
	decoded   []Payload
	neighbors []*Payload
	// order lists the neighbour indices by identifier; start and out are
	// the out-lists of the clique-tuple check (see evidence).
	order      []int32
	start, out []int32
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
			if own.Depth != pu.Depth || !slices.Equal(own.Bag, pu.Bag) {
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
	ok, _ = sc.tuplesOK(phi, &v, own)
	return ok
}

// tuplesOK is Verify's property check: the matrix re-evaluated on every
// clique tuple over {v} ∪ N(v), through the shared clique-tuple check.
// Point 0 is v itself, the centre, adjacent to every other point; point
// i+1 is its i-th neighbour. Adjacency between two neighbours is read off
// their self-verified rows through the trace-root rule: the deeper-homed
// endpoint of any real edge carries the other in its bag, so an accepted
// run exposes every real edge among the candidates and claims no fake
// ones it would need. sc.neighbors holds the neighbours' payloads. The
// second result is the check's adjacency probes, bag entries read
// included.
func (sc *verifyScratch) tuplesOK(phi *EMSO, v *cert.View, own *Payload) (bool, int) {
	neighbors := sc.neighbors
	ct := cliqueTuples{phi: phi, n: 1 + len(neighbors)}
	if len(phi.Vars) >= 2 && !phi.valid {
		ct.probes = sc.evidence(v)
		ct.start, ct.out = sc.start, sc.out
	}
	start, out := ct.start, ct.out
	has := func(a, b int) bool { return slices.Contains(out[start[a]:start[a+1]], int32(b)) }
	ct.adj = func(a, b int) bool {
		if a == b {
			return false
		}
		if a == 0 || b == 0 {
			return true // every candidate but v itself is a neighbour of v
		}
		return has(a, b) || has(b, a)
	}
	ct.member = func(set, p int) bool {
		w := own.State
		if p > 0 {
			w = neighbors[p-1].State
		}
		return w>>uint(set)&1 == 1
	}
	return ct.allTuplesOK(), ct.probes
}

// evidence builds the view's evidence adjacency once, as the out-lists
// of the clique-tuple check: neighbour i (point i+1) lists the points its
// row marks adjacent, skipping its own entry, v's (v is adjacent to
// every point anyway) and identifiers outside the view. Every list has
// at most T+1 entries, since Verify checked the bags' sizes; identifiers
// resolve to points by binary search over the neighbours in identifier
// order, which runner-built views already are. It returns the number of
// bag entries read.
func (sc *verifyScratch) evidence(v *cert.View) int {
	nbs := v.Neighbors
	sc.order = sc.order[:0]
	for i := range nbs {
		sc.order = append(sc.order, int32(i))
	}
	if !slices.IsSortedFunc(nbs, func(x, y cert.NeighborView) int { return cmp.Compare(x.ID, y.ID) }) {
		slices.SortFunc(sc.order, func(x, y int32) int { return cmp.Compare(nbs[x].ID, nbs[y].ID) })
	}
	probes := 0
	sc.start = append(sc.start[:0], 0, 0)
	sc.out = sc.out[:0]
	for i, pu := range sc.neighbors {
		probes += len(pu.Bag)
		for k, id := range pu.Bag {
			if !pu.Row[k] || id == v.ID || id == nbs[i].ID {
				continue
			}
			j, found := slices.BinarySearchFunc(sc.order, id, func(x int32, id graph.ID) int { return cmp.Compare(nbs[x].ID, id) })
			if found {
				sc.out = append(sc.out, sc.order[j]+1)
			}
		}
		sc.start = append(sc.start, int32(len(sc.out)))
	}
	return probes
}

// containsID reports membership in a sorted bag. Bags reaching it hold
// at most T+1 identifiers, so a scan that stops at the first entry not
// below id beats a binary search.
func containsID(ids []graph.ID, id graph.ID) bool {
	for _, x := range ids {
		if x >= id {
			return x == id
		}
	}
	return false
}
