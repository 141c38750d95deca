package treewidth

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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
// certificate is the decomposition; the DP only searches for a witness, so
// a valid matrix (tw-bound's), which any witness satisfies, runs no nice
// conversion and no DP and certifies with all-zero words. The
// verification is purely radius-1, against the neighbouring bags:
//
//   - membership and width: the vertex is in the encoded bag, which
//     has at most T+1 entries, and the bag's canonical owner, encoded as
//     an index into it, is one of them;
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
//   - property: the verifier checks the compiled matrix on every
//     variable tuple drawn from the vertex and its neighbours whose
//     points are pairwise equal or adjacent. The fragment's
//     clique-locality means a violating tuple is always a clique; its
//     members are then mutual neighbours, the trace-root rule pins each
//     pair's adjacency inside some home bag, and the self-verified rows
//     expose it — so some member of the violating clique sees it with
//     its genuine adjacency and rejects. The cliques come from the
//     clique-tuple walk the DP's transition tables and witness re-check
//     share (cliqueTuples): the view's evidence adjacency is built once
//     from the neighbours' rows, at most T+1 entries each, and every next
//     clique point is drawn from it, so a vertex of degree d costs
//     O((d+1)·(T+1)^(r−1)) adjacency probes for r variables. Each clique
//     is judged by one read of the sentence's clique table at its points'
//     witness words. A valid matrix, such as tw-bound's x = x, has no
//     tuple to find, and the check returns at once.
//
// A certificate holds, in order: the bag size s (Elias gamma); the entry
// width w, the bit length of the bag's largest identifier (gamma, 1 to
// 63); the bag as s strictly increasing w-bit fields; the bag id as an
// index into the bag, bits.Len(s) bits; the depth d (gamma); the row, s
// bits; the m-bit witness word; and a 16-bit guard binding the
// certificate to its vertex, so flips, replays and truncations are caught
// in one round (the self-stabilization deployment; semantic soundness
// never relies on it). With γ(x) = 2·bits.Len(x+1) − 1 bits for gamma
// and s ≤ T+1, a certificate takes at most
//
//	γ(T+1) + γ(w) + (T+1)(w+1) + bits.Len(T+1) + γ(d) + m + 16
//
// bits: O(T log n), one w-bit field per identifier, w at most the bit
// length of the graph's largest identifier.
//
// The scheme is a cert.Parser: a runner parses each certificate once per
// round into one fixed-stride record (parseRound), and Verify reads the
// records of its view's slots in place. The membership-and-width
// condition on a certificate (it decodes, its bag has at most T+1
// entries and holds its owner) is decided once, at parse time; a
// certificate failing it is malformed, and the owner and every neighbour
// reject it, as each did when it decoded the certificate itself.
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

// maxIDBits is the bit length of the largest positive graph.ID: a bag
// entry field this wide or narrower always decodes to a non-negative
// identifier.
const maxIDBits = 63

// Payload is the decoded certificate of one vertex.
type Payload struct {
	// BagID is the home bag's canonical identifier: the smallest vertex
	// ID homed at the bag (always a member of Bag). It is encoded as its
	// index in Bag; a BagID outside Bag encodes as index len(Bag), which
	// no decoder accepts.
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

// encodePrefixTo writes the self-delimiting decomposition fields — the
// bag size, the entry width, the bag, the bag id as an index into the bag
// and the depth — the exact counterpart of decodePrefixInto, shared by
// the honest encoder and the decomposition-aware tampers so the two can
// never drift apart. The entry width is the bit length of the bag's
// largest identifier (of the OR of its entries, so an unsorted bag still
// encodes, and fails to decode), and the index takes bits.Len(size)
// bits, so index size is always writable.
func encodePrefixTo(w *bitio.Writer, p Payload) {
	var or uint64
	for _, id := range p.Bag {
		or |= uint64(id)
	}
	width := bits.Len64(or)
	w.WriteUvarint(uint64(len(p.Bag)))
	w.WriteUvarint(uint64(width))
	for _, id := range p.Bag {
		w.WriteUint(uint64(id), width)
	}
	index := slices.Index(p.Bag, p.BagID)
	if index < 0 {
		index = len(p.Bag)
	}
	w.WriteUint(uint64(index), bits.Len(uint(len(p.Bag))))
	w.WriteUvarint(p.Depth)
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

// decodePrefixInto parses the self-delimiting decomposition fields (bag
// size, entry width, bag, bag id index, depth) off the body into p,
// reusing p.Bag's capacity, and returns the unparsed tail bits — the row
// and property payload, which decomposition-aware tampers carry through
// unchanged.
func decodePrefixInto(body []byte, p *Payload) ([]byte, bool) {
	r := bitio.NewReader(body)
	size, width, ok := readHeader(r)
	if !ok {
		return nil, false
	}
	if p.Bag, ok = readBag(r, size, width, p.Bag[:0]); !ok {
		return nil, false
	}
	if p.BagID, p.Depth, ok = readPlace(r, p.Bag); !ok {
		return nil, false
	}
	return body[len(body)-r.Remaining():], true
}

// readHeader reads the fields that open a certificate body: the bag size
// (1 to maxBagEntries) and the entry width (1 to maxIDBits). Payload
// decoding and the round parse share it, readBag and readPlace.
func readHeader(r *bitio.Reader) (size, width int, ok bool) {
	n, err := r.ReadUvarint()
	if err != nil || n == 0 || n > maxBagEntries {
		return 0, 0, false
	}
	w, err := r.ReadUvarint()
	if err != nil || w == 0 || w > maxIDBits {
		return 0, 0, false
	}
	return int(n), int(w), true
}

// readBag reads size entries of width bits and appends them to bag. No
// code enforces their order, so it checks it: the entries must be
// positive and strictly increasing, and the last exactly width bits long
// (the width encodePrefixTo writes), so every decodable bag is sorted,
// duplicate-free, positive and encoded one way only.
func readBag(r *bitio.Reader, size, width int, bag []graph.ID) ([]graph.ID, bool) {
	prev := uint64(0)
	for i := 0; i < size; i++ {
		v, err := r.ReadUint(width)
		if err != nil || v <= prev {
			return nil, false
		}
		prev = v
		bag = append(bag, graph.ID(v))
	}
	return bag, bits.Len64(prev) == width
}

// readPlace reads the fields that follow the bag: the bag id as an index
// of bits.Len(len(bag)) bits, below len(bag), and the depth. It returns
// the bag id, the indexed entry.
func readPlace(r *bitio.Reader, bag []graph.ID) (bagID graph.ID, depth uint64, ok bool) {
	i, err := r.ReadUint(bits.Len(uint(len(bag))))
	if err != nil || i >= uint64(len(bag)) {
		return 0, 0, false
	}
	if depth, err = r.ReadUvarint(); err != nil {
		return 0, 0, false
	}
	return bag[i], depth, true
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
// a nice decomposition, or by the validated decomposition alone when the
// matrix is valid). It runs Prove's solve path, except that a proven
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
// decomposition and its rooting at bag 0, then the nice conversion on
// that rooting and the EMSO DP. It returns the DP's per-vertex membership
// words and whether the property holds (nil words when it does not).
//
// A valid matrix (EMSO.valid, such as tw-bound's x = x) holds under every
// witness, so the property holds once the decomposition is validated and
// solve returns there: no nice conversion, no DP, nil words. Nil words
// encode as all-zero ones, which is exactly the witness the DP's
// traceback would pick, since its forget pass keeps the smallest
// forgotten word. The short cut also spares a valid sentence with set
// variables the DP's MaxDPStates bound.
func (s *MSOScheme) solve(ctx context.Context, g *graph.Graph) (*Decomposition, rooting, []uint8, bool, error) {
	if g.N() == 0 || !g.Connected() {
		return nil, rooting{}, nil, false, fmt.Errorf("treewidth: %s: graph must be connected and non-empty", s.Name())
	}
	d, r, err := s.decomposition(ctx, g)
	if err != nil {
		return nil, rooting{}, nil, false, err
	}
	phi := s.phi()
	if phi.valid {
		return d, r, nil, true, nil
	}
	cp := fault.NewCheckpoint(ctx, "decompose")
	nice, err := makeNice(&cp, d, r)
	if err != nil {
		return nil, rooting{}, nil, false, err
	}
	words, ok, err := SolveEMSOCtx(ctx, g, nice, phi)
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
// and validating the decomposition, the nice conversion and the EMSO DP
// unless the matrix is valid (see solve), the encode pass — runs under
// cooperative cancellation and returns a *fault.CancelledError once ctx
// is done.
//
// The certificates are written straight from the decomposition in one
// pass over the vertices. Bags that are nobody's home are pruned (safe:
// such a bag's contents reappear in its parent), each remaining bag is
// named after its smallest homed vertex id, and each vertex's home bag is
// mapped to identifiers in a scratch sorted by id, its row over that bag
// read off one stamp pass over its own neighbour row, and the lot encoded
// through one stack Payload over the scratch: nothing per vertex outlives
// its certificate.
func (s *MSOScheme) ProveCtx(ctx context.Context, g *graph.Graph) (cert.Assignment, error) {
	d, r, words, ok, err := s.solve(ctx, g)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("treewidth: tw-mso[%s]: property does not hold (nothing to certify)", s.Prop.Name)
	}
	owner, pruned := homeBagNames(g, d, r)
	// Certificates are cut from shared byte blocks sized for the
	// vertices still to encode at the current certificate's length,
	// capped: a tiny prove allocates a tiny block.
	n := g.N()
	a := make(cert.Assignment, n)
	var w bitio.Writer
	var slab []byte
	setBits := s.phi().NumSets()
	// mark[u] == v+1 while v's row is written: u is a neighbour of v.
	mark := make([]int32, n)
	var members []int // v's home bag, by identifier
	var ids []graph.ID
	var row []bool
	cp := fault.NewCheckpoint(ctx, "prove")
	for v := 0; v < n; v++ {
		if err := cp.Check(); err != nil {
			return nil, err
		}
		b := r.home[v]
		members = append(members[:0], d.Bags[b]...)
		if !g.IDsAscending() {
			slices.SortFunc(members, func(x, y int) int { return cmp.Compare(g.IDOf(x), g.IDOf(y)) })
		}
		stamp := int32(v + 1)
		for _, u := range g.Neighbors(v) {
			mark[u] = stamp
		}
		ids, row = ids[:0], row[:0]
		for _, u := range members {
			ids = append(ids, g.IDOf(u))
			row = append(row, mark[u] == stamp)
		}
		p := Payload{BagID: owner[b], Depth: pruned[b], Bag: ids, Row: row}
		if words != nil {
			p.State = uint64(words[v])
		}
		encodePayloadTo(&w, p, g.IDOf(v), setBits)
		c := w.Bits()
		a[v] = carve(&slab, c, min((n-v)*len(c), maxCertSlab))
	}
	return a, nil
}

// maxCertSlab caps the byte blocks ProveCtx cuts certificates from.
const maxCertSlab = 1 << 20

// homeBagNames returns, per bag of a validated decomposition rooted at
// bag 0, the canonical name of a home bag (its smallest homed vertex id,
// 0 for a bag that is nobody's home) and its depth in the pruned tree,
// which counts home-bag ancestors only.
func homeBagNames(g *graph.Graph, d *Decomposition, r rooting) (owner []graph.ID, pruned []uint64) {
	owner = make([]graph.ID, d.NumBags())
	for v, b := range r.home {
		id := g.IDOf(v)
		if owner[b] == 0 || id < owner[b] {
			owner[b] = id
		}
	}
	// Pruned depth: count only home-bag ancestors. Top-down over the BFS
	// order, tracking each bag's nearest home ancestor.
	hanc := make([]int32, d.NumBags())
	pruned = make([]uint64, d.NumBags())
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
	return owner, pruned
}

// carve copies src into the free tail of *slab, starting a new block of
// at least block bytes when the tail is too short, and returns the copy
// capped at its length (an append to it cannot spill into the next
// certificate's bits).
func carve(slab *[]byte, src []byte, block int) []byte {
	if cap(*slab)-len(*slab) < len(src) {
		*slab = make([]byte, 0, max(block, len(src)))
	}
	lo := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[lo:len(*slab):len(*slab)]
}

// verifyScratch is the recycled working memory of one Verify call: the
// view-local round of a view that came without one, and the view's
// evidence adjacency and witness words. Verify runs once per vertex per
// round — and concurrently under the sharded simulator — so each call
// that needs a scratch checks one out of the pool, and every buffer is
// reused across calls instead of reallocated.
type verifyScratch struct {
	// round and neighbors are a view-local round and the view's
	// neighbours renumbered into it (slot i+1 for neighbour i). The round
	// owns its storage: it never aliases a runner's round.
	round     parseRound
	neighbors []cert.NeighborView
	// order lists the neighbour indices by identifier; start and out are
	// the out-lists of the clique-tuple check (see evidence), and words
	// the witness words by point.
	order      []int32
	start, out []int32
	words      []uint64
}

var verifyScratchPool = sync.Pool{New: func() any { return &verifyScratch{} }}

// release returns the scratch to the pool without the view's
// certificates: a pooled scratch holds no runner's data.
func (sc *verifyScratch) release() {
	clear(sc.neighbors)
	sc.neighbors = sc.neighbors[:0]
	verifyScratchPool.Put(sc)
}

// parseView parses v's own certificate into slot 0 of the scratch round
// and neighbour i's into slot i+1, with the parse ParseRange runs, and
// renumbers v's slots to match.
func (sc *verifyScratch) parseView(t, setBits int, v *cert.View) *parseRound {
	rd := &sc.round
	rd.init(t, setBits, 1+len(v.Neighbors))
	rd.parse(0, v.ID, v.Cert)
	sc.neighbors = append(sc.neighbors[:0], v.Neighbors...)
	for i := range sc.neighbors {
		nb := &sc.neighbors[i]
		nb.Slot = int32(i + 1)
		rd.parse(nb.Slot, nb.ID, nb.Cert)
	}
	v.Round, v.Slot, v.Neighbors = rd, 0, sc.neighbors
	return rd
}

// Verify implements cert.Scheme; see the type comment for the check list.
// It reads the view's records from the runner's round (ParseRange) at the
// view's slots only; a view without a round of this scheme's parameters
// is parsed into a view-local round first, and check runs the same
// checks either way.
func (s *MSOScheme) Verify(v cert.View) bool {
	phi := s.phi()
	m := phi.NumSets()
	if rd, ok := v.Round.(*parseRound); ok && rd.t == s.T && rd.setBits == m {
		return check(phi, rd, &v, nil)
	}
	sc := verifyScratchPool.Get().(*verifyScratch)
	defer sc.release()
	return check(phi, sc.parseView(s.T, m, &v), &v, sc)
}

// check is Verify's one check path over the records of v's slots in rd.
// sc is the checked-out scratch when there is one (the view-local round
// lives in it); a view that needs a scratch only for the property check
// (evidence adjacency, witness words) checks one out here, so a valid
// matrix's check over a runner's round never touches the pool.
func check(phi *EMSO, rd *parseRound, v *cert.View, sc *verifyScratch) bool {
	own, ownBag, ownRow := rd.entry(v.Slot)
	ownID, ownDepth := own[recBagID], uint64(own[recDepth])
	// A malformed record (bag id 0) rejects. The bag is named after its
	// smallest homed vertex, so no member homed at it has a smaller id;
	// that the id is a member of the bag the parse guarantees.
	if ownID == 0 || ownID > v.ID {
		return false
	}
	// The adjacency row must match the vertex's actual neighbourhood —
	// fully checkable locally, which is what lets everyone else trust it.
	for i, id := range ownBag {
		_, isNb := v.NeighborByID(id)
		if id == v.ID {
			isNb = false
		}
		if rowBit(ownRow, i) != isNb {
			return false
		}
	}
	for _, nb := range v.Neighbors {
		rec, bag, _ := rd.entry(nb.Slot)
		bagID, depth := rec[recBagID], uint64(rec[recDepth])
		if bagID == 0 {
			return false // malformed: undecodable, too wide or not its owner's
		}
		uIn := containsID(ownBag, nb.ID)
		vIn := containsID(bag, v.ID)
		if !uIn && !vIn {
			return false // edge covered by no claimed bag
		}
		if ownID == bagID {
			// Same home bag: full agreement on the bag.
			if ownDepth != depth || !slices.Equal(ownBag, bag) {
				return false
			}
		} else {
			// Different home bags lie on one root path: mutual containment
			// would force the same home, and the containing side is the
			// strictly shallower one.
			if uIn && vIn {
				return false
			}
			if uIn && depth >= ownDepth {
				return false
			}
			if vIn && ownDepth >= depth {
				return false
			}
		}
	}
	if phi.valid {
		return true // no tuple falsifies a valid matrix
	}
	if sc == nil && (len(phi.Vars) >= 2 || phi.NumSets() > 0) {
		sc = verifyScratchPool.Get().(*verifyScratch)
		defer sc.release()
	}
	ok, _ := tuplesOK(phi, rd, v, sc)
	return ok
}

// tuplesOK is Verify's property check: the matrix judged on every
// clique tuple over {v} ∪ N(v), through the shared clique-tuple check.
// Point 0 is v itself, the centre, adjacent to every other point; point
// i+1 is its i-th neighbour. Adjacency between two neighbours is read off
// their self-verified rows through the trace-root rule: the deeper-homed
// endpoint of any real edge carries the other in its bag, so an accepted
// run exposes every real edge among the candidates and claims no fake
// ones it would need. Rows are read from the view's records in rd into
// out-lists, and the points' witness words gathered from it once; sc
// holds both (nil only for a sentence of one variable and no set, which
// reads neither). The second result is the check's adjacency probes, bag
// entries read included.
func tuplesOK(phi *EMSO, rd *parseRound, v *cert.View, sc *verifyScratch) (bool, int) {
	nbs := v.Neighbors
	ct := cliqueTuples{phi: phi, n: 1 + len(nbs)}
	if len(phi.Vars) >= 2 && !phi.valid {
		ct.probes = sc.evidence(rd, v)
		ct.start, ct.out = sc.start, sc.out
	}
	if phi.NumSets() > 0 {
		words := append(sc.words[:0], rd.word(v.Slot))
		for _, nb := range nbs {
			words = append(words, rd.word(nb.Slot))
		}
		sc.words, ct.words = words, words
	}
	return ct.allTuplesOK(), ct.probes
}

// evidence builds the view's evidence adjacency once, as the out-lists
// of the clique-tuple check: neighbour i (point i+1) lists the points its
// row marks adjacent, skipping its own entry, v's (v is adjacent to
// every point anyway) and identifiers outside the view. Every list has
// at most T+1 entries, since parsing marked longer bags malformed;
// identifiers resolve to points by binary search over the neighbours in
// identifier order, which runner-built views already are. It returns the
// number of bag entries read.
func (sc *verifyScratch) evidence(rd *parseRound, v *cert.View) int {
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
	for _, nb := range nbs {
		_, bag, row := rd.entry(nb.Slot)
		probes += len(bag)
		for k, id := range bag {
			if !rowBit(row, k) || id == v.ID || id == nb.ID {
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
