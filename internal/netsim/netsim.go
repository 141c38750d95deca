// Package netsim runs a local certification the way a self-stabilizing
// network would: a single certificate-exchange round in which every node
// learns the identifier and certificate of each neighbour, followed by the
// local verification algorithm at every node. The simulator must produce
// exactly the verdict of the sequential referee in package cert — an
// invariant covered by differential and property tests.
//
// The engine is sharded: vertices are partitioned into contiguous shards
// over a bounded worker pool, and the exchange round is realized through
// preallocated per-shard view buffers reused across runs via sync.Pool.
// This replaces the original goroutine-per-vertex, channel-per-edge
// realization (kept in legacy_test.go as a differential baseline), which
// collapsed under serving load: n goroutines and 2m channels per request
// versus a constant number of workers here, and no allocation per view.
//
// For a scheme that implements cert.Parser a round runs in two passes
// over the same shards: a parse pass, in which each worker parses its
// own vertices' certificates into their slots of the round (created once
// through the scheme's NewRound), and — after every shard is parsed — the
// verify pass, whose views carry the round and their vertices' slots.
// Each certificate is then decoded once per round instead of once per
// view it appears in, and a vertex's Verify reads the round at its own
// view's slots only: its own and its neighbours', what the exchange
// delivered to it. The round is the only allocation proportional to n;
// nothing of it outlives the round.
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

// roundBarrier is the fault point at the shard fan-out: each worker passes
// it before each pass over its vertex range (a parsing scheme's round has
// two), so an armed plan can fail or panic individual shards and exercise
// the containment path.
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

	// pool recycles per-shard scratch buffers (neighbour views and
	// rejecter lists) across runs, so a warmed-up engine assembles every
	// view without allocating. A parsing scheme's round is allocated per
	// round (see Run), never per view.
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
// Vertices are partitioned into one contiguous shard per worker. When s
// is a cert.Parser the round has two passes: the workers first parse
// their shards' certificates into the round s.NewRound created — each
// certificate once, not once per view it appears in — and, once every
// shard is parsed, verify. Each worker assembles views (carrying the
// round and their vertices' slots) in a pooled scratch buffer that is
// reused from vertex to vertex and returned to the engine pool when the
// shard is done. Consequently Verify implementations must not retain the
// view's Neighbors slice, or the round, past the call — none of the
// schemes in this module do.
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

	// busy accumulates each shard's time across both passes, observed
	// once per shard as its latency.
	busy := make([]time.Duration, workers)
	var round any
	if p, ok := s.(cert.Parser); ok {
		round = p.NewRound(n)
		err := e.fanOut(ctx, m, start, workers, n, func(w, lo, hi int) bool {
			t0 := time.Now()
			cp := fault.NewCheckpoint(ctx, "verify")
			err := cert.ParsePass(&cp, p, g, a, lo, hi, round)
			busy[w] = time.Since(t0)
			return err == nil
		})
		if err != nil {
			return Report{}, err
		}
	}
	// Contiguous shards, processed and concatenated in shard order, keep
	// the merged rejecter list sorted without a final sort.
	rejecters := make([][]int, workers)
	err := e.fanOut(ctx, m, start, workers, n, func(w, lo, hi int) bool {
		// Clock reads and the atomic metric flush stay out here so the
		// annotated shard body is pure verification work.
		t0 := time.Now()
		rej, bits, msgs, aborted := e.runShard(ctx, g, s, a, round, lo, hi)
		rejecters[w] = rej
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

// fanOut runs one pass of a round: one goroutine per shard, shard w
// covering its contiguous vertex range [lo, hi), all joined before
// fanOut returns. Each worker passes roundBarrier before touching its
// range. body reports false when it stopped early on cancellation; a
// failed barrier, a panicking body (a buggy parser or Verify, an armed
// panic fault) or a cancellation fails the pass with an error instead of
// taking the process down.
func (e *Engine) fanOut(ctx context.Context, m *simMetrics, start time.Time, workers, n int, body func(w, lo, hi int) bool) error {
	shardErrs := make([]error, workers)
	var aborted atomic.Bool
	var wg sync.WaitGroup
	per := n / workers
	extra := n % workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + per
		if w < extra {
			hi++
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					m.shardPanics.Inc()
					shardErrs[w] = fmt.Errorf("netsim: shard %d panicked: %v", w, r)
					aborted.Store(true)
				}
			}()
			if err := roundBarrier.Inject(); err != nil {
				shardErrs[w] = fmt.Errorf("netsim: shard %d: %w", w, err)
				aborted.Store(true)
				return
			}
			if !body(w, lo, hi) {
				aborted.Store(true)
			}
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	if !aborted.Load() {
		return nil
	}
	for _, err := range shardErrs {
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

// runShard verifies the contiguous vertex range [lo, hi): for each vertex
// it assembles the radius-1 exchange round into the pooled scratch and
// runs the scheme's local verifier. Traffic accumulates in shard-local
// ints so the per-view loop stays plain adds. A non-nil rej slice owns
// its memory (the scratch returns to the pool before it is published).
//
//certlint:hotpath
func (e *Engine) runShard(ctx context.Context, g *graph.Graph, s cert.Scheme, a cert.Assignment, round any, lo, hi int) (rejOut []int, bits, msgs int, aborted bool) {
	sc := e.getScratch()
	rej := sc.rej[:0]
	views := sc.views
	for v := lo; v < hi; v++ {
		if (v-lo)%checkInterval == 0 && ctx.Err() != nil {
			aborted = true
			break
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
	if len(rej) > 0 && !aborted {
		rejOut = append([]int(nil), rej...)
	}
	// The pooled buffer must not keep this round's certificates alive:
	// clear every slot it ever filled.
	clear(views[:cap(views)])
	sc.views = views[:0]
	sc.rej = rej[:0]
	e.pool.Put(sc)
	return rejOut, bits, msgs, aborted
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
