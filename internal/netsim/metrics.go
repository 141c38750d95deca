package netsim

import (
	"repro/internal/obs"
)

// Metric families the simulator writes, exported so the server layer and
// tests address the exact series instead of retyping strings.
const (
	// MetricRounds counts completed verification rounds.
	MetricRounds = "netsim_rounds_total"
	// MetricRoundSeconds is the whole-round latency histogram.
	MetricRoundSeconds = "netsim_round_seconds"
	// MetricShardSeconds is the per-worker busy-time histogram: one
	// observation per worker per round, the time it spent parsing and
	// verifying the chunks it claimed. Its spread against
	// netsim_round_seconds is the load-imbalance signal.
	MetricShardSeconds = "netsim_shard_seconds"
	// MetricRoundBits counts certificate bits moved across the simulated
	// wire (each neighbour receives each certificate once).
	MetricRoundBits = "netsim_round_bits_total"
	// MetricRoundMessages counts simulated messages (one per directed
	// edge per round).
	MetricRoundMessages = "netsim_round_messages_total"
	// MetricInflightRounds gauges rounds currently executing.
	MetricInflightRounds = "netsim_inflight_rounds"
	// MetricShardPanics counts round workers that panicked and were
	// contained: the round fails with an error, the process survives.
	MetricShardPanics = "netsim_shard_panics_total"
	// MetricSweepTrials counts adversarial sweep trials, labeled
	// outcome=noop|detected|undetected. Mutated trials are the detected
	// and undetected ones together.
	MetricSweepTrials = "netsim_sweep_trials_total"
)

// simMetrics holds the engine's metric handles, resolved once so the round
// hot path pays handle dereferences, not registry lookups.
type simMetrics struct {
	rounds       *obs.Counter
	roundSeconds *obs.Histogram
	shardSeconds *obs.Histogram
	bits         *obs.Counter
	messages     *obs.Counter
	inflight     *obs.Gauge
	shardPanics  *obs.Counter

	sweepNoop       *obs.Counter
	sweepDetected   *obs.Counter
	sweepUndetected *obs.Counter
}

// metrics resolves the engine's metric handles against its registry
// (obs.Default() when Obs is nil). Safe under concurrent Run calls.
func (e *Engine) metrics() *simMetrics {
	e.metricsOnce.Do(func() {
		r := e.Obs
		if r == nil {
			r = obs.Default()
		}
		trial := func(outcome string) *obs.Counter {
			return r.Counter(MetricSweepTrials,
				"adversarial sweep trials by outcome",
				obs.L("outcome", outcome))
		}
		e.sim = &simMetrics{
			rounds:          r.Counter(MetricRounds, "completed verification rounds"),
			roundSeconds:    r.Histogram(MetricRoundSeconds, "verification round latency"),
			shardSeconds:    r.Histogram(MetricShardSeconds, "per-worker busy time in a verification round"),
			bits:            r.Counter(MetricRoundBits, "certificate bits exchanged"),
			messages:        r.Counter(MetricRoundMessages, "simulated messages (one per directed edge)"),
			inflight:        r.Gauge(MetricInflightRounds, "verification rounds in flight"),
			shardPanics:     r.Counter(MetricShardPanics, "contained round worker panics"),
			sweepNoop:       trial("noop"),
			sweepDetected:   trial("detected"),
			sweepUndetected: trial("undetected"),
		}
	})
	return e.sim
}
