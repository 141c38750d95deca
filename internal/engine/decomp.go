package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/treewidth"
)

// decompCompute is the fault point inside the decomposition cache's
// computing flight, between the singleflight claim and the heuristic run.
var decompCompute = fault.NewPoint("engine.decomp.compute")

// DecompCache memoizes tree decompositions by graph fingerprint with the
// same singleflight discipline as the compile cache: a batch of tw-mso
// jobs over the same graph (or the same generator spec, which rebuilds an
// identical graph) computes the decomposition once and shares it. The
// decomposition is the expensive per-graph artifact of the treewidth
// workload — the heuristics are quadratic — so this is the engine-level
// reuse the compile cache cannot provide for graph-specific state.
//
// Keys are FNV-64a fingerprints of the CSR snapshot; a
// collision would hand a scheme a decomposition of the wrong graph, which
// the prover's validity check rejects instead of certifying garbage.
type DecompCache struct {
	flights flight[uint64, *treewidth.Decomposition]

	hits   *obs.Counter
	misses *obs.Counter

	decompPhase *obs.Histogram

	// bare backs the handles above when the cache is built without a
	// registry, so construction costs no registry wiring.
	bare struct {
		hits, misses obs.Counter
		decompPhase  obs.Histogram
	}
}

// maxDecompEntries bounds the cache: fingerprints are client-controlled
// (every distinct graph is a fresh key), so without a cap a client
// iterating over seeds would grow the server's memory monotonically. On
// overflow an arbitrary entry is evicted — waiters already holding its
// flight keep their pointer; later requests simply recompute.
const maxDecompEntries = 1024

// NewDecompCache returns an empty decomposition cache with bare
// (unregistered) metric handles.
func NewDecompCache() *DecompCache {
	return NewDecompCacheObs(nil)
}

// NewDecompCacheObs returns an empty decomposition cache whose counters
// and phase histogram live in r (nil means bare unregistered handles).
// Pass the same registry as the compile cache's so one exposition carries
// all three cache families.
func NewDecompCacheObs(r *obs.Registry) *DecompCache {
	c := &DecompCache{flights: flight[uint64, *treewidth.Decomposition]{name: "decomposition", max: maxDecompEntries}}
	if r == nil {
		c.hits = &c.bare.hits
		c.misses = &c.bare.misses
		c.decompPhase = &c.bare.decompPhase
		return c
	}
	c.hits = cacheCounter(r, "decomp", "hit")
	c.misses = cacheCounter(r, "decomp", "miss")
	c.decompPhase = PhaseHistogram(r, "decompose")
	return c
}

// fingerprint folds g into a cache key: FNV-64a over the vertex count,
// the identifiers and the CSR rows, streamed value by value. Hashing the
// snapshot directly instead of a serialized encoding keeps the key
// allocation-free — at a million vertices the old wire-encoding detour
// materialized a buffer larger than the graph just to hash it.
func fingerprint(g *graph.Graph) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346545037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	c := g.CSR()
	n := c.N()
	mix(uint64(n))
	for v := 0; v < n; v++ {
		mix(uint64(g.IDOf(v)))
	}
	// Row lengths delimit the neighbor stream, so distinct graphs cannot
	// collide by concatenation.
	for v := 0; v < n; v++ {
		row := c.Row(v)
		mix(uint64(len(row)))
		for _, w := range row {
			mix(uint64(w))
		}
	}
	return h
}

// Get returns the cached decomposition for g, computing it with the
// elimination heuristics if absent.
func (c *DecompCache) Get(g *graph.Graph) (*treewidth.Decomposition, error) {
	d, hit, err := c.get(context.Background(), g)
	c.count(hit)
	return d, err
}

// GetCtx is Get under a "decompose" span tagged with the cache outcome;
// the call's duration is recorded in the decompose phase histogram. The
// context cancels a computation this call started; a waiter whose winning
// flight was cancelled by someone else retries instead of inheriting the
// stranger's cancellation.
func (c *DecompCache) GetCtx(ctx context.Context, g *graph.Graph) (*treewidth.Decomposition, error) {
	_, sp := obs.Start(ctx, "decompose")
	d, hit, err := c.get(ctx, g)
	c.count(hit)
	if hit {
		sp.SetAttr("cache", "hit")
	} else {
		sp.SetAttr("cache", "miss")
	}
	sp.End()
	c.decompPhase.Observe(sp.Duration())
	return d, err
}

func (c *DecompCache) count(hit bool) {
	if hit {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
}

// get implements the singleflight lookup without touching the counters:
// the counted entry points (Get, GetCtx) and the silent one (Provider)
// share it. The context belongs to the request that wins the computing
// flight; waiters that inherit a *cancelled* flight retry with their own
// context instead of failing for someone else's disconnect.
func (c *DecompCache) get(ctx context.Context, g *graph.Graph) (*treewidth.Decomposition, bool, error) {
	if g == nil {
		return nil, false, fmt.Errorf("engine: decomposition cache: nil graph")
	}
	return c.flights.do(fingerprint(g), func() (*treewidth.Decomposition, error) {
		if err := decompCompute.Inject(); err != nil {
			return nil, err
		}
		d, _, err := treewidth.HeuristicCtx(ctx, g)
		return d, err
	}, func(err error) error {
		if _, cancelled := fault.Cancelled(err); !cancelled {
			return err
		}
		// The computing request went away mid-flight: re-claim the key —
		// unless this waiter is itself cancelled.
		if cerr := ctx.Err(); cerr != nil {
			return &fault.CancelledError{Phase: "decompose", Cause: cerr}
		}
		return nil
	})
}

// Provider adapts the cache to the scheme's DecompProvider slot. Unlike a
// generator witness the returned closure is graph-agnostic, so a compiled
// tw-mso scheme carrying it stays shareable across graphs and cacheable.
//
// The closure reads the cache silently: when a caller prewarms via
// PrewarmDecomposition the prewarm is the one counted logical request, and
// the scheme's internal access must not count the same job twice.
func (c *DecompCache) Provider() func(*graph.Graph) (*treewidth.Decomposition, error) {
	return func(g *graph.Graph) (*treewidth.Decomposition, error) {
		d, _, err := c.get(context.Background(), g)
		return d, err
	}
}

// ProviderCtx is Provider with the caller's context threaded into any
// computation the lookup starts, so a prove that resolves its
// decomposition through the cache stays cancellable end to end.
func (c *DecompCache) ProviderCtx() func(context.Context, *graph.Graph) (*treewidth.Decomposition, error) {
	return func(ctx context.Context, g *graph.Graph) (*treewidth.Decomposition, error) {
		d, _, err := c.get(ctx, g)
		return d, err
	}
}

// DecompStats is a snapshot of decomposition-cache effectiveness.
type DecompStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Size   int   `json:"size"`
}

// Stats returns current counters.
func (c *DecompCache) Stats() DecompStats {
	size := c.flights.len()
	return DecompStats{Hits: c.hits.Value(), Misses: c.misses.Value(), Size: size}
}

// Purge drops every cached decomposition (counters are kept).
func (c *DecompCache) Purge() {
	c.flights.purge()
}

// attachDecompCache hands a freshly compiled tw-mso scheme the shared
// decomposition cache when it has no witness of its own. It runs inside
// the compiling goroutine, before the scheme is published to waiters.
func (c *Cache) attachDecompCache(s cert.Scheme) {
	if c.Decomps == nil || s == nil {
		return
	}
	if tws, ok := s.(*treewidth.MSOScheme); ok && tws.DecompProvider == nil {
		tws.DecompProvider = c.Decomps.Provider()
		tws.DecompProviderCtx = c.Decomps.ProviderCtx()
		tws.CacheBackedDecomp = true
	}
}

// PrewarmDecomposition populates the shared decomposition cache for g when
// s is a cache-backed tw-mso scheme, under a "decompose" span. The
// subsequent Prove (which takes no context) then finds the decomposition
// in the cache, so decomposition cost is attributed to its own phase
// instead of folding into prove time. The prewarm is the counted logical
// cache request for the job.
//
// Errors are deliberately swallowed: on a failed or too-wide cached
// decomposition the scheme falls back to its own computation (including
// exact search), so the job may still succeed — the fallback cost shows
// up as prove time.
func (c *Cache) PrewarmDecomposition(ctx context.Context, s cert.Scheme, g *graph.Graph) time.Duration {
	if c.Decomps == nil || g == nil {
		return 0
	}
	tws, ok := s.(*treewidth.MSOScheme)
	if !ok || !tws.CacheBackedDecomp {
		return 0
	}
	t0 := time.Now()
	_, _ = c.Decomps.GetCtx(ctx, g)
	return time.Since(t0)
}
