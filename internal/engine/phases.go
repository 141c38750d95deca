package engine

import (
	"context"
	"time"

	"repro/internal/obs"
)

// Metric families the engine writes. The names are exported so the server
// layer and tests address the exact series the engine emits instead of
// retyping strings.
const (
	// MetricPhaseSeconds is the per-phase latency histogram, labeled
	// phase=generate|compile|decompose|prove|verify|sweep.
	MetricPhaseSeconds = "certify_phase_seconds"
	// MetricCacheRequests counts cache lookups, labeled
	// cache=compile|formula|decomp and result=hit|miss|bypass.
	MetricCacheRequests = "engine_cache_requests_total"
	// MetricJobs counts finished pipeline jobs, labeled
	// outcome=accepted|rejected|failed.
	MetricJobs = "engine_jobs_total"
	// MetricQueueDepth gauges batch-pipeline jobs accepted but not yet
	// picked up by a worker, summed across concurrently running batches.
	// A persistently non-zero depth under load is the first sign the
	// worker pool is the bottleneck rather than any single phase.
	MetricQueueDepth = "engine_queue_depth"
	// MetricCancelled counts certification work abandoned at a cooperative
	// cancellation checkpoint, labeled by the abandoned phase
	// (request, compile, decompose, prove or verify). A
	// climbing decompose count under load means clients give up while
	// their graphs are still being decomposed — raise the deadline or
	// shrink the graphs.
	MetricCancelled = "certify_cancelled_total"
)

// cacheCounter returns the counter for one (cache, result) cell of the
// cache-request family. A nil registry yields a bare unregistered counter:
// caches built without a registry (tests, libraries, benchmarks) still
// count exactly — readable through their Stats accessors — without paying
// for registry wiring they will never scrape.
func cacheCounter(r *obs.Registry, cache, result string) *obs.Counter {
	if r == nil {
		return new(obs.Counter)
	}
	return r.Counter(MetricCacheRequests,
		"cache lookups by cache and result",
		obs.L("cache", cache), obs.L("result", result))
}

// PhaseHistogram returns the latency histogram for one certification
// phase. A nil registry yields a bare unregistered histogram, like
// cacheCounter.
func PhaseHistogram(r *obs.Registry, phase string) *obs.Histogram {
	if r == nil {
		return new(obs.Histogram)
	}
	return r.Histogram(MetricPhaseSeconds,
		"certification phase latency",
		obs.L("phase", phase))
}

// QueueDepthGauge returns the pipeline's queued-jobs gauge. Exported so
// the serving layer can register the series eagerly (a gauge that only
// appears after the first batch can't be pinned by the metrics smoke
// gate). A nil registry yields a bare unregistered gauge, like
// cacheCounter.
func QueueDepthGauge(r *obs.Registry) *obs.Gauge {
	if r == nil {
		return new(obs.Gauge)
	}
	return r.Gauge(MetricQueueDepth, "batch jobs queued for a pipeline worker")
}

// jobCounter returns the counter for one pipeline-job outcome.
func jobCounter(r *obs.Registry, outcome string) *obs.Counter {
	return r.Counter(MetricJobs,
		"pipeline jobs by outcome",
		obs.L("outcome", outcome))
}

// CancelledCounter returns the counter for one cancelled-work phase.
// Exported so the serving layer counts its inline phases (the /decompose
// handler) into the same family the pipeline writes. A nil registry
// yields a bare unregistered counter, like cacheCounter.
func CancelledCounter(r *obs.Registry, phase string) *obs.Counter {
	if r == nil {
		return new(obs.Counter)
	}
	return r.Counter(MetricCancelled,
		"work abandoned at a cancellation checkpoint, by phase",
		obs.L("phase", phase))
}

// Deadline budgets: a request-scoped deadline is apportioned across the
// sequential certify phases by weight, so a slow decompose cannot eat the
// entire budget and leave prove and verify no room to fail fast. The
// split is recomputed from the *remaining* budget at each phase start, so
// slack from a fast phase flows to the later ones.
var (
	phaseOrder  = []string{"generate", "compile", "decompose", "prove", "verify"}
	phaseWeight = map[string]int{
		"generate":  1,
		"compile":   1,
		"decompose": 5,
		"prove":     6,
		"verify":    3,
	}
)

// PhaseFloor is the minimum deadline slice any phase is handed (bounded
// by the request's own remaining budget): a request arriving with little
// budget left still gives each phase a usable slice instead of a
// microsecond deadline that cancels it before the first checkpoint.
const PhaseFloor = 25 * time.Millisecond

// PhaseBudget returns a child context whose deadline is phase's weighted
// share of ctx's remaining budget, floored at PhaseFloor and capped at
// the parent deadline. A context with no deadline — and any unknown
// phase name — passes through untouched with a no-op cancel, so callers
// can uniformly `defer cancel()`.
func PhaseBudget(ctx context.Context, phase string) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	w := phaseWeight[phase]
	if !ok || w <= 0 {
		return ctx, func() {}
	}
	remaining := time.Until(dl)
	rest := 0
	seen := false
	for _, p := range phaseOrder {
		if p == phase {
			seen = true
		}
		if seen {
			rest += phaseWeight[p]
		}
	}
	share := remaining * time.Duration(w) / time.Duration(rest)
	if share < PhaseFloor {
		share = PhaseFloor
	}
	if share > remaining {
		share = remaining
	}
	return context.WithTimeout(ctx, share)
}
