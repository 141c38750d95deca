package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graphgen"
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
