// Package cert defines the local certification model of the paper (§3.3):
// a prover assigns a certificate (bit string) to every vertex, and a local
// verification algorithm runs at every vertex with a radius-1 view — its
// own identifier and certificate plus the identifiers and certificates of
// its neighbours. The verifier does NOT see the edges among its neighbours.
//
//   - completeness: on a yes-instance some assignment makes every vertex
//     accept;
//   - soundness: on a no-instance every assignment is rejected by at least
//     one vertex.
//
// The package provides the Scheme interface every certification implements,
// the sequential referee, certificate size accounting (in bits), and an
// adversarial tampering harness used by soundness tests.
//
// A scheme whose certificates are costly to decode may also implement
// Parser: the runners then parse each certificate once per round instead
// of once per view it appears in (1 + deg(v) times). The round's parse is
// one value for the whole graph, which every view carries as View.Round,
// and each vertex of a view carries its slot in it (View.Slot,
// NeighborView.Slot). The slot's parse is a function of that vertex's
// identifier and certificate alone — exactly what the view already
// carries — and Verify may read the round only at its own view's slots,
// so parsing changes the cost of a round, never what a vertex can see.
// The types do not enforce that: Round holds every vertex's parse, and a
// scheme's tests hold its Verify to the contract. A runner owns a round
// from NewRound until it hands it back through ReleaseRound, once, after
// the last parse and the last Verify that read it have returned, so a
// scheme may recycle round storage from one round to the next.
package cert

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/graph"
)

// Certificate is a bit string, one byte per bit as produced by
// bitio.Writer. A nil certificate is the empty certificate.
type Certificate []byte

// Assignment maps each vertex index of a graph to its certificate.
type Assignment []Certificate

// Clone returns a deep copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for i, c := range a {
		out[i] = append(Certificate(nil), c...)
	}
	return out
}

// MaxBits returns the size of the largest certificate in bits — the
// certification size measure used throughout the paper.
func (a Assignment) MaxBits() int {
	max := 0
	for _, c := range a {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// TotalBits returns the sum of all certificate sizes in bits.
func (a Assignment) TotalBits() int {
	total := 0
	for _, c := range a {
		total += len(c)
	}
	return total
}

// NeighborView is the part of a neighbour a vertex can see: identifier and
// certificate, nothing else. Slot is the neighbour's slot in the view's
// Round, as in View.
type NeighborView struct {
	ID   graph.ID
	Cert Certificate
	Slot int32
}

// View is the radius-1 view of a vertex: everything the local verification
// algorithm may read. Consistent with the paper's model, it contains no
// information about edges among the neighbours and no global quantities.
//
// Round, when non-nil, is the scheme's own parse of the round, made once
// by a runner (see Parser), and Slot and each NeighborView.Slot address
// the view's vertices in it. Verify may read Round at those slots only:
// each holds nothing but that vertex's parse of its identifier and
// certificate, so reading them adds no information to the view. A nil
// Round — hand-built views, schemes without a parser — means Verify
// decodes the certificates itself, and the slots mean nothing.
type View struct {
	ID        graph.ID
	Cert      Certificate
	Round     any
	Slot      int32
	Neighbors []NeighborView
}

// Degree returns the number of neighbours in the view.
func (v *View) Degree() int { return len(v.Neighbors) }

// NeighborByID returns the neighbour view with the given identifier.
func (v *View) NeighborByID(id graph.ID) (NeighborView, bool) {
	for _, nb := range v.Neighbors {
		if nb.ID == id {
			return nb, true
		}
	}
	return NeighborView{}, false
}

// Scheme is a local certification of a graph property.
type Scheme interface {
	// Name identifies the scheme in reports and errors.
	Name() string
	// Holds is the centralized ground truth for the certified property.
	Holds(g *graph.Graph) (bool, error)
	// Prove produces an accepting assignment for a yes-instance. It
	// returns an error when g does not satisfy the property (an honest
	// prover has nothing to certify) or when g violates the scheme's
	// assumptions.
	Prove(g *graph.Graph) (Assignment, error)
	// Verify is the local verification algorithm, run independently at
	// every vertex on its radius-1 view.
	Verify(v View) bool
}

// CtxProver is the optional cancellable side of a Scheme: provers whose
// work is long enough to need cooperative cancellation implement
// ProveCtx and keep Prove as the background-context shim. Callers go
// through ProveWithContext, which falls back to plain Prove for cheap
// schemes.
type CtxProver interface {
	ProveCtx(ctx context.Context, g *graph.Graph) (Assignment, error)
}

// ProveWithContext proves g under s, threading ctx through when the
// scheme supports cancellation.
func ProveWithContext(ctx context.Context, s Scheme, g *graph.Graph) (Assignment, error) {
	if cp, ok := s.(CtxProver); ok {
		return cp.ProveCtx(ctx, g)
	}
	return s.Prove(g)
}

// Parser is the optional batch-shaped side of a Scheme. A runner that
// finds it creates one round of parse storage with n slots, parses every
// certificate into it once before any vertex verifies, and hands the
// round to every view, whose vertices carry their slots (vertex v's slot
// is v). Verify reads the round at its own view's slots only. A round
// lives for one verification pass: callers may change certificates
// between rounds. When the pass is over — every vertex verified, the
// pass cancelled, or a parse or Verify panicked — and no goroutine of the
// runner touches the round any more, the runner hands it back through
// ReleaseRound, exactly once, and keeps no reference to it.
type Parser interface {
	// NewRound returns the parse storage of a round over n vertices,
	// slots 0..n-1, for ParseRange to fill. Its contents before the
	// parse are unspecified: it may be the storage of a released round.
	NewRound(n int) any
	// ReleaseRound takes back a round NewRound returned once its runner
	// is done with it; the scheme may reuse its storage in a later round.
	ReleaseRound(round any)
	// ParseRange parses (g.IDOf(v), a[v]) into slot v of round, for every
	// v in [lo, hi). A slot's parse must depend on that pair and the
	// scheme's own parameters alone, and Verify must give the same
	// verdict on a view with the round as on the same view without one.
	// Calls on disjoint ranges of one round may run concurrently.
	ParseRange(g *graph.Graph, a Assignment, lo, hi int, round any)
}

// parseChunk is how many vertices ParsePass hands the parser between
// cancellation probes: one probe per checkpoint stride of work.
const parseChunk = fault.CheckStride

// ParsePass runs p over the vertex range [lo, hi) of a round, probing cp
// before every chunk of parseChunk vertices, so a cancelled round stops
// within one chunk with cp's *fault.CancelledError. The sequential
// referee runs it over the whole graph; the simulator over each chunk of
// vertices a worker claims.
func ParsePass(cp *fault.Checkpoint, p Parser, g *graph.Graph, a Assignment, lo, hi int, round any) error {
	for lo < hi {
		if err := cp.Now(); err != nil {
			return err
		}
		next := min(lo+parseChunk, hi)
		p.ParseRange(g, a, lo, next, round)
		lo = next
	}
	return nil
}

// AssembleView builds the radius-1 view of vertex v under assignment a:
// its identifier and certificate plus each neighbour's, sorted by
// identifier so no verifier can depend on adjacency-list order. Rows are
// sorted by index, so when g's identifiers ascend with the index
// (g.IDsAscending) the neighbours arrive in identifier order and are not
// sorted again. round, when non-nil, is the round's parse (see Parser),
// which the view carries once; every vertex of the view carries its index
// as its slot. The neighbour list is built in buf's storage and returned
// as the view's Neighbors, so a runner that passes each view's Neighbors
// back as the next buf assembles a whole round without allocating; the
// view is valid until buf is reused.
//
//certlint:hotpath
func AssembleView(g *graph.Graph, a Assignment, round any, v int, buf []NeighborView) View {
	view := View{ID: g.IDOf(v), Cert: a[v], Round: round, Slot: int32(v), Neighbors: buf[:0]}
	for _, u := range g.Neighbors(v) {
		view.Neighbors = append(view.Neighbors, NeighborView{ID: g.IDOf(int(u)), Cert: a[u], Slot: u})
	}
	if !g.IDsAscending() {
		slices.SortFunc(view.Neighbors, byID)
	}
	return view
}

// byID orders neighbour views by identifier; package level so the
// per-view sort allocates no closure.
func byID(x, y NeighborView) int { return cmp.Compare(x.ID, y.ID) }

// ViewOf constructs the radius-1 view of vertex v under an assignment in
// fresh storage, for callers that keep the view.
func ViewOf(g *graph.Graph, a Assignment, v int) View {
	return AssembleView(g, a, nil, v, nil)
}

// Result is the outcome of running a scheme's verifier at every vertex.
type Result struct {
	Accepted  bool
	Rejecters []int // vertex indices that rejected, sorted
}

// RunSequential evaluates the verifier at every vertex of g under the
// given assignment and aggregates the results.
func RunSequential(g *graph.Graph, s Scheme, a Assignment) (Result, error) {
	return RunSequentialCtx(context.Background(), g, s, a)
}

// RunSequentialCtx is RunSequential with cooperative cancellation: the
// parse pass (when s is a Parser) and the per-vertex loop poll one
// checkpoint, so abandoning a million-vertex referee costs at most one
// checkpoint stride. Views are assembled in one reused buffer. A parsing
// scheme's round goes back through ReleaseRound when the call returns or
// unwinds.
func RunSequentialCtx(ctx context.Context, g *graph.Graph, s Scheme, a Assignment) (Result, error) {
	if len(a) != g.N() {
		return Result{}, fmt.Errorf("cert: assignment has %d certificates for %d vertices", len(a), g.N())
	}
	cp := fault.NewCheckpoint(ctx, "verify")
	var round any
	if p, ok := s.(Parser); ok {
		round = p.NewRound(g.N())
		defer p.ReleaseRound(round)
		if err := ParsePass(&cp, p, g, a, 0, g.N(), round); err != nil {
			return Result{}, err
		}
	}
	res := Result{Accepted: true}
	// One view buffer for the whole round, sized for the largest
	// neighbourhood so that no view grows it.
	buf := make([]NeighborView, 0, g.MaxDegree())
	for v := 0; v < g.N(); v++ {
		if err := cp.Check(); err != nil {
			return Result{}, err
		}
		view := AssembleView(g, a, round, v, buf)
		buf = view.Neighbors
		if !s.Verify(view) {
			res.Accepted = false
			res.Rejecters = append(res.Rejecters, v)
		}
	}
	return res, nil
}

// ProveAndVerify is the round-trip helper used by examples and tests: it
// asks the scheme to prove g and then checks that every vertex accepts.
func ProveAndVerify(g *graph.Graph, s Scheme) (Assignment, Result, error) {
	a, err := s.Prove(g)
	if err != nil {
		return nil, Result{}, fmt.Errorf("cert: %s: prove: %w", s.Name(), err)
	}
	res, err := RunSequential(g, s, a)
	if err != nil {
		return nil, Result{}, fmt.Errorf("cert: %s: run: %w", s.Name(), err)
	}
	return a, res, nil
}
