package netsim

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
)

// TamperStat is the sweep outcome for one tamper kind.
type TamperStat struct {
	// Tamper is the tamper's name, e.g. "flip-bits-1" or "swap".
	Tamper string `json:"tamper"`
	// Trials is how many times the tamper was applied.
	Trials int `json:"trials"`
	// NoOps counts trials where the tamper reported it did not change the
	// assignment; these are excluded from the detection rate.
	NoOps int `json:"noops"`
	// Mutated counts trials that actually corrupted the assignment.
	Mutated int `json:"mutated"`
	// Detected counts mutated trials rejected by at least one vertex.
	Detected int `json:"detected"`
	// Undetected lists the trial indices of mutated-but-accepted trials,
	// for reproduction; any entry is a soundness finding.
	Undetected []int `json:"undetected,omitempty"`
	// Rejecters is the total number of rejecting vertices across detected
	// trials — how loud the alarm is, in the self-stabilization story.
	Rejecters int `json:"rejecters"`
	// VerifyNS is the total wall time spent in verification rounds for
	// this tamper, across all non-no-op trials.
	VerifyNS int64 `json:"verify_ns"`
}

// DetectionRate returns Detected/Mutated, or 1 when nothing mutated (no
// corruption escaped because none occurred).
func (ts TamperStat) DetectionRate() float64 {
	if ts.Mutated == 0 {
		return 1
	}
	return float64(ts.Detected) / float64(ts.Mutated)
}

// SweepReport aggregates an adversarial soundness sweep: each tamper
// applied `trials` times to the honest assignment, each corrupted
// assignment pushed through a distributed verification round.
type SweepReport struct {
	Stats []TamperStat `json:"stats"`
	// AllDetected reports whether every actually-mutated trial was caught
	// by at least one vertex.
	AllDetected bool `json:"all_detected"`
}

// Sweep applies each tamper `trials` times to the honest assignment and
// runs the sharded verification round on every corrupted variant. The rng
// for each tamper is derived from seed and the tamper's name, so a sweep
// is reproducible and per-tamper results do not depend on the order or
// presence of other tampers: re-running a single tamper kind with the
// same seed replays exactly the trials (and Undetected indices) it had
// inside a full-family sweep.
//
// The honest assignment is never modified (tampers copy), and honest is
// expected to be accepting — callers verify it first; Sweep itself only
// measures what happens to corrupted variants. A sweep abandoned because
// ctx is done returns a *fault.CancelledError with Phase "sweep", whether
// it stopped between trials or inside one's verification round.
func (e *Engine) Sweep(ctx context.Context, g *graph.Graph, s cert.Scheme, honest cert.Assignment, tampers []cert.Tamper, trials int, seed int64) (SweepReport, error) {
	if len(honest) != g.N() {
		return SweepReport{}, fmt.Errorf("netsim: sweep: assignment has %d certificates for %d vertices", len(honest), g.N())
	}
	if trials <= 0 {
		return SweepReport{}, fmt.Errorf("netsim: sweep: trials must be positive, got %d", trials)
	}
	m := e.metrics()
	start := time.Now()
	rep := SweepReport{AllDetected: true}
	for _, tm := range tampers {
		rng := rand.New(rand.NewSource(seed ^ int64(nameHash(tm.Name))))
		st := TamperStat{Tamper: tm.Name, Trials: trials}
		for i := 0; i < trials; i++ {
			if err := ctx.Err(); err != nil {
				return rep, &fault.CancelledError{Phase: "sweep", Elapsed: time.Since(start), Cause: err}
			}
			bad, mutated := tm.Apply(honest, rng)
			if !mutated {
				st.NoOps++
				m.sweepNoop.Inc()
				continue
			}
			st.Mutated++
			t0 := time.Now()
			r, err := e.Run(ctx, g, s, bad)
			st.VerifyNS += time.Since(t0).Nanoseconds()
			if ce, ok := fault.Cancelled(err); ok {
				// The round's verify cancellation is the sweep's: the
				// abandoned work is the sweep, whichever trial it hit.
				return rep, &fault.CancelledError{Phase: "sweep", Elapsed: time.Since(start), Cause: ce.Cause}
			}
			if err != nil {
				return rep, err
			}
			if r.Accepted {
				st.Undetected = append(st.Undetected, i)
				m.sweepUndetected.Inc()
			} else {
				st.Detected++
				st.Rejecters += len(r.Rejecters)
				m.sweepDetected.Inc()
			}
		}
		if st.Detected < st.Mutated {
			rep.AllDetected = false
		}
		rep.Stats = append(rep.Stats, st)
	}
	return rep, nil
}

// nameHash folds a tamper name into the seed-derivation constant (FNV-1a)
// so each tamper's randomness is a pure function of (seed, name).
func nameHash(name string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(name))
	return h.Sum32()
}

// Sweep runs an adversarial soundness sweep on the shared Default engine
// with the standard tamper family. See Engine.Sweep.
func Sweep(ctx context.Context, g *graph.Graph, s cert.Scheme, honest cert.Assignment, trials int, seed int64) (SweepReport, error) {
	return Default.Sweep(ctx, g, s, honest, cert.StandardTampers(), trials, seed)
}
