package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graphgen"
	"repro/internal/obs"
	"repro/internal/registry"
)

// A verify-only job referees the submitted assignment without proving:
// the honest assignment is accepted, a tampered one rejected, and one that
// does not fit the graph fails in the verify phase.
func TestCertifyVerifyOnly(t *testing.T) {
	pipe := &Pipeline{Cache: NewCache(registry.Default())}
	job := Job{Graph: graphgen.Path(10), Scheme: "tree-mso", Params: registry.Params{Property: "perfect-matching"}}
	honest, a := pipe.Certify(context.Background(), job)
	if honest.Err != nil || !honest.Accepted || honest.Prove <= 0 || len(a) != 10 {
		t.Fatalf("honest certify: %+v (assignment %d)", honest, len(a))
	}

	for _, distributed := range []bool{false, true} {
		job.Distributed = distributed
		job.Certificates = a
		res, got := pipe.Certify(context.Background(), job)
		if res.Err != nil || !res.Accepted || res.Prove != 0 || res.Decompose != 0 || res.Verify <= 0 {
			t.Fatalf("distributed=%v: verify-only honest: %+v", distributed, res)
		}
		if res.MaxBits != honest.MaxBits || res.TotalBits != honest.TotalBits || len(got) != len(a) {
			t.Fatalf("distributed=%v: verify-only sizes %d/%d, want %d/%d", distributed, res.MaxBits, res.TotalBits, honest.MaxBits, honest.TotalBits)
		}

		bad := a.Clone()
		bad[4] = cert.Certificate{}
		job.Certificates = bad
		if res, _ := pipe.Certify(context.Background(), job); res.Err != nil || res.Accepted || len(res.Rejecters) == 0 {
			t.Fatalf("distributed=%v: tampered assignment: %+v", distributed, res)
		}

		job.Certificates = a[:3]
		res, _ = pipe.Certify(context.Background(), job)
		var pe *PhaseError
		if !errors.As(res.Err, &pe) || pe.Phase != "verify" {
			t.Fatalf("distributed=%v: short assignment failed with %v, want a verify PhaseError", distributed, res.Err)
		}
	}
}

// Failures name their phase, so callers map them without parsing text.
func TestCertifyPhaseErrors(t *testing.T) {
	pipe := &Pipeline{Cache: NewCache(registry.Default())}
	cases := []struct {
		job   Job
		phase string
	}{
		{Job{Scheme: "tree-mso"}, "generate"},
		{Job{Graph: graphgen.Path(4), Scheme: "no-such-scheme"}, "compile"},
		// Odd path: no perfect matching, the honest prover refuses.
		{Job{Graph: graphgen.Path(7), Scheme: "tree-mso", Params: registry.Params{Property: "perfect-matching"}}, "prove"},
	}
	for _, tc := range cases {
		res, _ := pipe.Certify(context.Background(), tc.job)
		var pe *PhaseError
		if !errors.As(res.Err, &pe) || pe.Phase != tc.phase {
			t.Fatalf("job %+v failed with %v, want a %s PhaseError", tc.job, res.Err, tc.phase)
		}
		if res.Error != res.Err.Error() {
			t.Fatalf("Error %q != Err %q", res.Error, res.Err)
		}
	}
}

// Certify leaves panics to its caller (the server's recoverer answers
// them with a 500), while Run contains them per job.
func TestCertifyPanicPropagates(t *testing.T) {
	plan, err := fault.ParsePlan("seed=1;engine.prove.pre:panic#1")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(plan); err != nil {
		t.Fatal(err)
	}
	defer fault.Disarm()
	pipe := &Pipeline{Cache: NewCache(registry.Default())}
	job := Job{Graph: graphgen.Path(8), Scheme: "tree-mso", Params: registry.Params{Property: "perfect-matching"}}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Certify swallowed the panic")
			}
		}()
		pipe.Certify(context.Background(), job)
	}()
	if res, _ := pipe.Certify(context.Background(), job); res.Err != nil || !res.Accepted {
		t.Fatalf("certify after the one-shot panic: %+v", res)
	}
}

// A decompose that overruns its deadline slice fails the job in the
// decompose phase. The prewarm's cancellation must reach the runner:
// swallowing it let the prover silently recompute the whole
// decomposition under prove's slice and report a successful job.
func TestCertifyDecomposeOverrunFailsDecompose(t *testing.T) {
	reg := obs.NewRegistry()
	cache := NewCacheObs(registry.Default(), reg)
	cache.Decomps = NewDecompCacheObs(reg)
	pipe := &Pipeline{Cache: cache}
	// n above the block-split threshold: the block loop probes the
	// context before its first block.
	job := Job{Graph: graphgen.Path(5000), Scheme: "tw-mso", Params: registry.Params{Property: "tw-bound", T: 2}}
	if _, err := cache.GetOrCompile(job.Scheme, job.Params); err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParsePlan("seed=1;engine.decomp.compute:delay=600ms#1")
	if err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm(plan); err != nil {
		t.Fatal(err)
	}
	defer fault.Disarm()
	// The decompose slice is 5/14 of the 1s request budget; the delay
	// overruns it but leaves the request itself ~400ms, which is ample
	// for prove to recompute the decomposition of a path.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	res, _ := pipe.Certify(ctx, job)
	var pe *PhaseError
	if !errors.As(res.Err, &pe) || pe.Phase != "decompose" {
		t.Fatalf("overrun job ended with %v (prove %v), want a decompose PhaseError", res.Err, res.Prove)
	}
	if ce, ok := fault.Cancelled(res.Err); !ok || ce.Phase != "decompose" {
		t.Fatalf("overrun job error %v is not a decompose cancellation", res.Err)
	}
	if res.Prove != 0 {
		t.Fatalf("prove ran for %v after the decompose overrun", res.Prove)
	}
	if got := CancelledCounter(reg, "decompose").Value(); got != 1 {
		t.Fatalf("certify_cancelled_total{phase=\"decompose\"} = %d, want 1", got)
	}
}

// A sweep abandoned because its context is done fails the job as a sweep
// cancellation, counted under phase "sweep" — whether the cancellation
// lands between trials or inside a trial's verification round.
func TestCertifySweepCancellationNamesSweep(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutated bool
	}{{"between-trials", false}, {"inside-round", true}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			pipe := &Pipeline{Cache: NewCacheObs(registry.Default(), reg)}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The tamper cancels the job on its first application: a no-op
			// trial meets the cancellation at the next between-trials
			// check, a mutated one inside its verification round.
			tamper := cert.Tamper{Name: "cancel", Apply: func(a cert.Assignment, _ *rand.Rand) (cert.Assignment, bool) {
				cancel()
				if !tc.mutated {
					return a, false
				}
				bad := a.Clone()
				bad[0] = cert.Certificate{}
				return bad, true
			}}
			job := Job{
				Graph:  graphgen.Path(64),
				Scheme: "tree-mso",
				Params: registry.Params{Property: "perfect-matching"},
				Sweep:  &TamperSweep{Tampers: []cert.Tamper{tamper}, Trials: 3},
			}
			res, _ := pipe.Certify(ctx, job)
			var pe *PhaseError
			if !errors.As(res.Err, &pe) || pe.Phase != "sweep" {
				t.Fatalf("cancelled sweep ended with %v, want a sweep PhaseError", res.Err)
			}
			if ce, ok := fault.Cancelled(res.Err); !ok || ce.Phase != "sweep" || !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("cancelled sweep error %v is not a sweep cancellation", res.Err)
			}
			for phase, want := range map[string]int64{"sweep": 1, "verify": 0} {
				if got := CancelledCounter(reg, phase).Value(); got != want {
					t.Fatalf("certify_cancelled_total{phase=%q} = %d, want %d", phase, got, want)
				}
			}
		})
	}
}
