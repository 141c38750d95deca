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
package cert

import (
	"context"
	"fmt"
	"sort"

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
// certificate, nothing else.
type NeighborView struct {
	ID   graph.ID
	Cert Certificate
}

// View is the radius-1 view of a vertex: everything the local verification
// algorithm may read. Consistent with the paper's model, it contains no
// information about edges among the neighbours and no global quantities.
type View struct {
	ID        graph.ID
	Cert      Certificate
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

// ViewOf constructs the radius-1 view of vertex v under an assignment.
func ViewOf(g *graph.Graph, a Assignment, v int) View {
	view := View{
		ID:   g.IDOf(v),
		Cert: a[v],
	}
	neighbors := g.Neighbors(v)
	view.Neighbors = make([]NeighborView, len(neighbors))
	for i, w := range neighbors {
		view.Neighbors[i] = NeighborView{ID: g.IDOf(int(w)), Cert: a[w]}
	}
	// Sort for determinism: the verifier must not depend on adjacency-list
	// order, and sorted views make failures reproducible.
	sort.Slice(view.Neighbors, func(i, j int) bool {
		return view.Neighbors[i].ID < view.Neighbors[j].ID
	})
	return view
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
// per-vertex loop polls an amortized checkpoint, so abandoning a
// million-vertex referee costs at most one checkpoint stride.
func RunSequentialCtx(ctx context.Context, g *graph.Graph, s Scheme, a Assignment) (Result, error) {
	if len(a) != g.N() {
		return Result{}, fmt.Errorf("cert: assignment has %d certificates for %d vertices", len(a), g.N())
	}
	cp := fault.NewCheckpoint(ctx, "verify")
	res := Result{Accepted: true}
	for v := 0; v < g.N(); v++ {
		if err := cp.Check(); err != nil {
			return Result{}, err
		}
		if !s.Verify(ViewOf(g, a, v)) {
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
