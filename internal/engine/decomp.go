package engine

import (
	"context"
	"fmt"
	"math/bits"
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
// Keys are 64-bit fingerprints of the graph's vertex count, identifiers
// and sorted rows (see fingerprint); a collision would hand a scheme a
// decomposition of the wrong graph, which the prover's validity check
// rejects instead of certifying garbage.
type DecompCache struct {
	flights flight[uint64, *treewidth.Decomposition]

	hits   *obs.Counter
	misses *obs.Counter

	decompPhase *obs.Histogram
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
	return &DecompCache{
		flights:     flight[uint64, *treewidth.Decomposition]{name: "decomposition", max: maxDecompEntries},
		hits:        cacheCounter(r, "decomp", "hit"),
		misses:      cacheCounter(r, "decomp", "miss"),
		decompPhase: PhaseHistogram(r, "decompose"),
	}
}

// fingerprint folds g into a cache key: the vertex count, the
// identifiers and the sorted neighbour rows, streamed value by value
// through fold. Hashing the rows directly instead of a serialized
// encoding keeps the key allocation-free — at a million vertices the old
// wire-encoding detour materialized a buffer larger than the graph just
// to hash it.
func fingerprint(g *graph.Graph) uint64 {
	n := g.N()
	h := fold(fingerprintSeed, uint64(n))
	for v := 0; v < n; v++ {
		h = fold(h, uint64(g.IDOf(v)))
	}
	for v := 0; v < n; v++ {
		h = foldRow(h, g.Neighbors(v))
	}
	return h
}

// foldRow folds one neighbour row into h, its length first: row lengths
// delimit the neighbour stream, so row streams cannot collide by
// concatenation.
func foldRow(h uint64, row []int32) uint64 {
	h = fold(h, uint64(len(row)))
	for _, w := range row {
		h = fold(h, uint64(w))
	}
	return h
}

// fingerprintSeed is the fingerprint's starting state (FNV-64's offset
// basis).
const fingerprintSeed = 14695981039346545037

// fold mixes one 64-bit value into the running fingerprint h in one
// step: xor, a multiply by an odd constant (2⁶⁴/φ) and a rotation that
// carries the product's well-mixed high bits down to where the next
// multiply spreads them again. For a fixed value every step is a
// bijection of h, so two streams that differ in a single value always
// get distinct fingerprints.
func fold(h, x uint64) uint64 {
	return bits.RotateLeft64((h^x)*0x9e3779b97f4a7c15, 29)
}

// GetCtx returns the cached decomposition for g, computing it with the
// elimination heuristics if absent, under a "decompose" span tagged with
// the cache outcome; the call counts as one cache request and its
// duration lands in the decompose phase histogram. The context cancels a
// computation this call started; a waiter whose winning flight was
// cancelled by someone else retries instead of inheriting the stranger's
// cancellation.
func (c *DecompCache) GetCtx(ctx context.Context, g *graph.Graph) (*treewidth.Decomposition, error) {
	_, sp := obs.Start(ctx, "decompose")
	d, hit, err := c.get(ctx, g)
	if hit {
		c.hits.Inc()
		sp.SetAttr("cache", "hit")
	} else {
		c.misses.Inc()
		sp.SetAttr("cache", "miss")
	}
	sp.End()
	c.decompPhase.Observe(sp.Duration())
	return d, err
}

// Decomposition implements treewidth.DecompSource with a silent lookup,
// so a tw-mso scheme can draw its decomposition from the cache. Unlike a
// generator witness the source is graph-agnostic, so a compiled scheme
// carrying it stays shareable across graphs and cacheable. The lookup
// counts nothing: when a caller prewarms via PrewarmDecomposition the
// prewarm is the one counted logical request, and the scheme's internal
// access must not count the same job twice.
func (c *DecompCache) Decomposition(ctx context.Context, g *graph.Graph) (*treewidth.Decomposition, error) {
	d, _, err := c.get(ctx, g)
	return d, err
}

// Provider is the silent lookup as a context-free function.
func (c *DecompCache) Provider() func(*graph.Graph) (*treewidth.Decomposition, error) {
	return func(g *graph.Graph) (*treewidth.Decomposition, error) {
		return c.Decomposition(context.TODO(), g)
	}
}

// get implements the singleflight lookup without touching the counters:
// the counted entry point (GetCtx) and the silent one (Decomposition)
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
	if tws, ok := s.(*treewidth.MSOScheme); ok && c.Decomps != nil && tws.Decomps == nil {
		tws.Decomps = c.Decomps
	}
}

// PrewarmDecomposition populates the shared decomposition cache for g when
// s is a cache-backed tw-mso scheme, under a "decompose" span, and
// returns how long that took. The prove that follows then finds the
// decomposition in the cache, so decomposition cost is attributed to its
// own phase instead of folding into prove time. The prewarm is the
// counted logical cache request for the job.
//
// A cancellation is returned: the caller's decompose slice ran out, and
// letting prove recompute the decomposition under its own slice would
// hide the overrun. Every other error is deliberately swallowed: on a
// failed or too-wide cached decomposition the scheme falls back to its
// own computation (including exact search), so the job may still succeed
// — the fallback cost shows up as prove time.
func (c *Cache) PrewarmDecomposition(ctx context.Context, s cert.Scheme, g *graph.Graph) (time.Duration, error) {
	tws, ok := s.(*treewidth.MSOScheme)
	if !ok || c.Decomps == nil || g == nil || tws.Decomps != c.Decomps {
		return 0, nil
	}
	t0 := time.Now()
	_, err := c.Decomps.GetCtx(ctx, g)
	if _, cancelled := fault.Cancelled(err); !cancelled {
		err = nil
	}
	return time.Since(t0), err
}
