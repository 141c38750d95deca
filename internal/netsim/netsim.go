// Package netsim runs a local certification the way a self-stabilizing
// network would: a single certificate-exchange round in which every node
// learns the identifier and certificate of each neighbour, followed by the
// local verification algorithm at every node. The simulator must produce
// exactly the verdict of the sequential referee in package cert — an
// invariant covered by differential and property tests.
//
// The engine is sharded over a bounded worker pool: each worker claims
// chunks of consecutive vertices from an atomic counter until none is
// left, so a worker whose chunks hold few edges takes more of them, and a
// graph whose edges crowd one end of the index range (a partial k-tree
// puts most of them on low indices) still keeps every worker busy to the
// end of the pass. The exchange round is realized through per-worker view
// buffers reused across runs via sync.Pool. This replaces the original
// goroutine-per-vertex, channel-per-edge realization (kept in
// legacy_test.go as a differential baseline), which collapsed under
// serving load: n goroutines and 2m channels per request versus a
// constant number of workers here, and no allocation per view.
//
// For a scheme that implements cert.Parser a round runs in two passes:
// a parse pass, in which the workers parse the certificates of the
// chunks they claim into their slots of the round (created once through
// the scheme's NewRound), and — after every chunk is parsed — the verify
// pass, whose views carry the round and their vertices' slots. Each
// certificate is then decoded once per round instead of once per view it
// appears in, and a vertex's Verify reads the round at its own view's
// slots only: its own and its neighbours', what the exchange delivered to
// it. Once both passes have joined their workers, the round goes back to
// the scheme through ReleaseRound, which may hand its storage to the next
// round.
//
// This is the "self-stabilization" deployment story of the paper: the
// verification round is what a network would run periodically to detect
// corrupted global state with one round of communication.
package netsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
)

// roundBarrier is the fault point at the fan-out: each worker passes it
// once per pass, before claiming its first chunk (a parsing scheme's
// round has two passes), so an armed plan can fail or panic individual
// workers and exercise the containment path.
var roundBarrier = fault.NewPoint("netsim.round.barrier")

// Report is the outcome of a distributed verification round.
type Report struct {
	Accepted  bool
	Rejecters []int // vertex indices that rejected, sorted
	Rounds    int   // communication rounds used (always 1 in this model)
	Workers   int   // workers the engine used for this run
}

// Engine is a sharded round engine. The zero value is ready to use; it
// runs with GOMAXPROCS workers and an engine-local buffer pool. Engines
// must not be copied after first use (they embed a sync.Pool).
type Engine struct {
	// Workers bounds the goroutines a run may spawn; <= 0 means
	// GOMAXPROCS. A run never uses more goroutines than this, whatever
	// the graph size.
	Workers int

	// Obs is the registry round metrics land in; nil means the
	// package-level obs.Default(). Set before the first Run — the handles
	// are resolved once.
	Obs *obs.Registry

	// pool recycles per-worker scratch buffers (neighbour views and
	// rejecter lists) across runs, so a warmed-up engine assembles every
	// view without allocating. A parsing scheme's round comes from the
	// scheme once per round (see Run), never per view.
	pool sync.Pool

	metricsOnce sync.Once
	sim         *simMetrics
}

// shardScratch is the reusable working memory of one worker: the view
// buffer the exchange round is assembled into, and the local rejecter
// accumulator.
type shardScratch struct {
	views []cert.NeighborView
	rej   []int
}

// checkInterval is how many vertices a worker verifies between context
// checks; a power of two so the test compiles to a mask.
const checkInterval = 256

// Default is the shared engine package-level Run delegates to, so every
// caller that does not need its own worker bound shares one warm buffer
// pool.
var Default = &Engine{}

// Run executes one distributed verification round on the shared Default
// engine. See Engine.Run.
func Run(ctx context.Context, g *graph.Graph, s cert.Scheme, a cert.Assignment) (Report, error) {
	return Default.Run(ctx, g, s, a)
}

// EffectiveWorkers resolves the worker count a round over n vertices
// runs on (the Report's Workers for any n > 0).
func (e *Engine) EffectiveWorkers(n int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (e *Engine) getScratch() *shardScratch {
	if sc, ok := e.pool.Get().(*shardScratch); ok {
		return sc
	}
	return &shardScratch{}
}

// Run executes one distributed verification round of scheme s on graph g
// under the certificate assignment a: every vertex assembles its radius-1
// view (own identifier and certificate plus each neighbour's, sorted by
// identifier — exactly what crosses the wire in the paper's model, no
// adjacency information) and runs the local verification algorithm.
//
// Each pass deals the vertices out in chunks (see newPass) that the
// workers claim until none is left. When s is a cert.Parser the round
// has two passes: the workers first parse their chunks' certificates
// into the round s.NewRound created — each certificate once, not once
// per view it appears in — and, once every chunk is parsed, verify. Each
// worker assembles views (carrying the round and their vertices' slots)
// in a pooled scratch buffer that is reused from vertex to vertex and
// returned to the engine pool when the worker runs out of chunks.
// Consequently Verify implementations must not retain the view's
// Neighbors slice, or the round, past the call — none of the schemes in
// this module do. Run hands the round back through s.ReleaseRound exactly
// once, after both passes have joined their workers, whether the round
// completed, was cancelled or failed.
//
// The verdict is identical to cert.RunSequential: same Accepted flag, same
// sorted Rejecters. Cancellation via ctx aborts either pass promptly with
// an error; each pass joins its workers before the next starts or Run
// returns, so no goroutine outlives the call, and at most Workers
// goroutines exist during it.
func (e *Engine) Run(ctx context.Context, g *graph.Graph, s cert.Scheme, a cert.Assignment) (Report, error) {
	start := time.Now()
	n := g.N()
	if len(a) != n {
		return Report{}, fmt.Errorf("netsim: assignment has %d certificates for %d vertices", len(a), n)
	}
	if err := ctx.Err(); err != nil {
		return Report{}, &fault.CancelledError{Phase: "verify", Cause: err}
	}
	m := e.metrics()
	workers := e.EffectiveWorkers(n)
	if n == 0 {
		m.rounds.Inc()
		return Report{Accepted: true, Rounds: 1, Workers: 0}, nil
	}
	_, rsp := obs.Start(ctx, "round")
	rsp.SetAttr("n", n)
	rsp.SetAttr("workers", workers)
	m.inflight.Inc()
	defer func() {
		m.inflight.Dec()
		rsp.End()
		m.rounds.Inc()
		m.roundSeconds.Observe(rsp.Duration())
	}()

	// busy accumulates each worker's time across both passes, observed
	// once per worker as its latency.
	busy := make([]time.Duration, workers)
	var round any
	if p, ok := s.(cert.Parser); ok {
		round = p.NewRound(n)
		// Deferred, so it runs once fanOut has joined every worker of
		// the last pass that ran, on every way out of Run.
		defer p.ReleaseRound(round)
		parse := newPass(n, workers)
		err := e.fanOut(ctx, m, start, workers, parse, func(w int) bool {
			t0 := time.Now()
			cp := fault.NewCheckpoint(ctx, "verify")
			for _, lo, hi, ok := parse.claim(); ok; _, lo, hi, ok = parse.claim() {
				if cert.ParsePass(&cp, p, g, a, lo, hi, round) != nil {
					return false
				}
			}
			busy[w] = time.Since(t0)
			return true
		})
		if err != nil {
			return Report{}, err
		}
	}
	// Rejecters are kept per chunk and joined in chunk order, which keeps
	// the merged list sorted without a final sort.
	verify := newPass(n, workers)
	rejecters := make([][]int, verify.chunks)
	err := e.fanOut(ctx, m, start, workers, verify, func(w int) bool {
		// Clock reads and the atomic metric flush stay out here so the
		// annotated body is pure verification work.
		t0 := time.Now()
		bits, msgs, aborted := e.verifyChunks(ctx, g, s, a, round, verify, rejecters)
		m.shardSeconds.Observe(busy[w] + time.Since(t0))
		m.bits.Add(int64(bits))
		m.messages.Add(int64(msgs))
		return !aborted
	})
	if err != nil {
		return Report{}, err
	}

	rep := Report{Accepted: true, Rounds: 1, Workers: workers}
	for _, rj := range rejecters {
		if len(rj) > 0 {
			rep.Accepted = false
			rep.Rejecters = append(rep.Rejecters, rj...)
		}
	}
	return rep, nil
}

// pass deals the vertex range [0, n) of one pass of a round out in
// chunks of consecutive vertices, claimed in index order from an atomic
// counter. A worker that is done with a chunk claims the next one, so
// workers whose chunks hold few edges take more of them: a graph whose
// edges crowd one end of the index range (a partial k-tree puts most of
// them on low indices) keeps every worker busy to the end of the pass.
type pass struct {
	n, size, chunks int
	next            atomic.Int64
	// failed is set once a worker fails (barrier error, panic,
	// cancellation); no chunk is dealt after it.
	failed atomic.Bool
}

// newPass returns the pass over n vertices on workers workers. A chunk
// holds max(⌈n/(8·workers)⌉, min(checkInterval, ⌈n/workers⌉)) vertices:
// about eight chunks per worker on a large round, so the last chunk to
// finish is a small share of it, but never fewer than checkInterval
// vertices unless a worker's share is smaller, so a round over at most
// workers·checkInterval vertices keeps one chunk per worker.
func newPass(n, workers int) *pass {
	size := max(ceilDiv(n, 8*workers), min(checkInterval, ceilDiv(n, workers)))
	return &pass{n: n, size: size, chunks: ceilDiv(n, size)}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// claim returns the next unclaimed chunk, its index and its vertex range
// [lo, hi), or ok = false once every chunk is claimed or a worker of the
// pass has failed.
func (p *pass) claim() (c, lo, hi int, ok bool) {
	if p.failed.Load() {
		return 0, 0, 0, false
	}
	c = int(p.next.Add(1) - 1)
	if c >= p.chunks {
		return 0, 0, 0, false
	}
	lo = c * p.size
	return c, lo, min(lo+p.size, p.n), true
}

// fanOut runs one pass of a round: workers goroutines, all joined before
// fanOut returns. Each worker passes roundBarrier once and then runs
// body(w), which claims chunks of ps until none is left. body reports
// false when it stopped early on cancellation; a failed barrier, a
// panicking body (a buggy parser or Verify, an armed panic fault) or a
// cancellation fails the pass with an error instead of taking the
// process down, and the other workers claim no further chunk.
func (e *Engine) fanOut(ctx context.Context, m *simMetrics, start time.Time, workers int, ps *pass, body func(w int) bool) error {
	workerErrs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					m.shardPanics.Inc()
					workerErrs[w] = fmt.Errorf("netsim: worker %d panicked: %v", w, r)
					ps.failed.Store(true)
				}
			}()
			if err := roundBarrier.Inject(); err != nil {
				workerErrs[w] = fmt.Errorf("netsim: worker %d: %w", w, err)
				ps.failed.Store(true)
				return
			}
			if !body(w) {
				ps.failed.Store(true)
			}
		}()
	}
	wg.Wait()
	if !ps.failed.Load() {
		return nil
	}
	for _, err := range workerErrs {
		if err != nil {
			return err
		}
	}
	return &fault.CancelledError{
		Phase:   "verify",
		Elapsed: time.Since(start),
		Cause:   context.Cause(ctx),
	}
}

// verifyChunks is one worker's verify pass: for each vertex of every
// chunk of ps it claims, it assembles the radius-1 exchange round into
// the worker's pooled scratch, checked out once for the pass, and runs
// the scheme's local verifier. A chunk's rejecters land in its entry of
// rejecters, in memory of their own (the scratch returns to the pool
// before they are published). Traffic accumulates in worker-local ints
// so the per-view loop stays plain adds.
//
//certlint:hotpath
func (e *Engine) verifyChunks(ctx context.Context, g *graph.Graph, s cert.Scheme, a cert.Assignment, round any, ps *pass, rejecters [][]int) (bits, msgs int, aborted bool) {
	sc := e.getScratch()
	rej := sc.rej[:0]
	views := sc.views
chunks:
	for c, lo, hi, ok := ps.claim(); ok; c, lo, hi, ok = ps.claim() {
		for v := lo; v < hi; v++ {
			if (v-lo)%checkInterval == 0 && ctx.Err() != nil {
				aborted = true
				break chunks
			}
			// The exchange round for v: (id, certificate) from every
			// neighbour, assembled in the reused view buffer.
			view := cert.AssembleView(g, a, round, v, views)
			views = view.Neighbors // keep grown capacity for the next vertex
			for _, nb := range view.Neighbors {
				bits += len(nb.Cert)
			}
			msgs += len(view.Neighbors)
			if !s.Verify(view) {
				rej = append(rej, v)
			}
		}
		if len(rej) > 0 {
			rejecters[c] = append([]int(nil), rej...)
			rej = rej[:0]
		}
	}
	// The pooled buffer must not keep this round's certificates alive:
	// clear every slot it ever filled.
	clear(views[:cap(views)])
	sc.views = views[:0]
	sc.rej = rej[:0]
	e.pool.Put(sc)
	return bits, msgs, aborted
}

// ProveAndRun is the distributed counterpart of cert.ProveAndVerify.
func ProveAndRun(ctx context.Context, g *graph.Graph, s cert.Scheme) (cert.Assignment, Report, error) {
	a, err := cert.ProveWithContext(ctx, s, g)
	if err != nil {
		return nil, Report{}, fmt.Errorf("netsim: %s: prove: %w", s.Name(), err)
	}
	rep, err := Run(ctx, g, s, a)
	if err != nil {
		return nil, Report{}, err
	}
	return a, rep, nil
}
