package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/registry"
)

// provePre is the fault point between a job's compiled scheme and its
// prove call — the last moment before the expensive work starts.
var provePre = fault.NewPoint("engine.prove.pre")

// TamperSweep asks a job to additionally attack its own honest assignment:
// each tamper is applied Trials times and every corrupted variant is
// verified, reporting detection statistics.
type TamperSweep struct {
	// Tampers is the adversary family; empty means cert.StandardTampers.
	Tampers []cert.Tamper
	// Trials is the per-tamper trial count; <= 0 means 10.
	Trials int
	// Seed makes the sweep deterministic.
	Seed int64
}

// Job is one unit of certification work: prove and verify one graph
// under one scheme, optionally followed by an adversarial soundness sweep.
type Job struct {
	// Graph is the instance to certify. Leave nil and set Lazy to
	// materialize the instance inside a worker instead.
	Graph *graph.Graph
	// Lazy builds the graph (and may refine the params, e.g. attach a
	// generator's witness provider) when the job is picked up. Keeping
	// construction in the workers bounds batch memory to the worker
	// count and parallelizes generation.
	Lazy func() (*graph.Graph, registry.Params, error)
	// Scheme names a registry entry.
	Scheme string
	// Params parameterise the scheme factory; ignored when Lazy is set
	// (Lazy returns the effective params).
	Params registry.Params
	// Certificates, when set, makes the job verify-only: decompose and
	// prove are skipped and this submitted assignment is verified instead
	// of an honest proof.
	Certificates cert.Assignment
	// Distributed verifies on the sharded network simulator instead of
	// the sequential referee (the verdicts are identical; the simulator
	// additionally exercises the self-stabilization code path).
	Distributed bool
	// Sweep, when set, runs the adversarial soundness sweep after an
	// accepted verification.
	Sweep *TamperSweep
}

// JobResult reports one job's outcome with per-phase timings and the
// certificate-size statistics the paper measures.
type JobResult struct {
	// Index is the job's position in the submitted batch.
	Index int `json:"index"`
	// Scheme is the resolved scheme name (empty when compilation failed).
	Scheme string `json:"scheme,omitempty"`
	// Accepted reports whether every vertex accepted the assignment.
	Accepted bool `json:"accepted"`
	// Rejecters lists rejecting vertex indices, when any.
	Rejecters []int `json:"rejecters,omitempty"`
	// MaxBits and TotalBits are the certificate-size measures.
	MaxBits   int `json:"max_bits"`
	TotalBits int `json:"total_bits"`
	// Generate, Compile, Decompose, Prove and Verify are the phase
	// durations (Generate is zero for jobs submitted with an explicit
	// graph; Decompose is zero unless the scheme draws its tree
	// decomposition from the shared cache; Decompose and Prove are zero
	// for verify-only jobs).
	Generate  time.Duration `json:"generate_ns"`
	Compile   time.Duration `json:"compile_ns"`
	Decompose time.Duration `json:"decompose_ns,omitempty"`
	Prove     time.Duration `json:"prove_ns"`
	Verify    time.Duration `json:"verify_ns"`
	// Distributed reports that verification ran on the network simulator.
	Distributed bool `json:"distributed,omitempty"`
	// Sweep is the adversarial soundness report, when the job asked for
	// one and the verification accepted; SweepTime is its duration.
	Sweep     *netsim.SweepReport `json:"sweep,omitempty"`
	SweepTime time.Duration       `json:"sweep_ns,omitempty"`
	// Err is the failure, if the job did not complete: a *PhaseError
	// naming the failed phase, or a *fault.CancelledError for a job whose
	// context was done before it started. It does not survive JSON; Error
	// is the serializable form.
	Err error `json:"-"`
	// Error is Err's text, populated at the pipeline layer so every
	// consumer of serialized results sees the failure cause — not only
	// clients that translate Err by hand.
	Error string `json:"error,omitempty"`
}

// fail records an error in both its programmatic and serializable forms.
func (r *JobResult) fail(err error) {
	r.Err = err
	r.Error = err.Error()
}

// PhaseError attributes a job failure to the phase that produced it —
// generate, compile, decompose, prove, verify or sweep — so callers map
// failures by phase instead of by message text.
type PhaseError struct {
	Phase string
	Err   error
}

func (e *PhaseError) Error() string { return e.Phase + ": " + e.Err.Error() }

func (e *PhaseError) Unwrap() error { return e.Err }

// Pipeline certifies jobs — one at a time through Certify, or batches on
// a bounded worker pool through Run — compiling schemes through a shared
// cache.
type Pipeline struct {
	// Cache supplies compiled schemes; required.
	Cache *Cache
	// Workers bounds Run's concurrency; <= 0 means GOMAXPROCS.
	Workers int
	// Sim runs distributed verifications and sweeps. When nil the
	// pipeline lazily builds one engine writing its metrics into the
	// cache's registry, so round latencies land next to the phase
	// histograms instead of in the package-level default registry.
	Sim *netsim.Engine

	simOnce sync.Once
	simLazy *netsim.Engine
}

// sim resolves the network-simulation engine.
func (p *Pipeline) sim() *netsim.Engine {
	if p.Sim != nil {
		return p.Sim
	}
	p.simOnce.Do(func() {
		p.simLazy = &netsim.Engine{Obs: p.Cache.Obs}
	})
	return p.simLazy
}

// effectiveWorkers resolves the worker count.
func (p *Pipeline) effectiveWorkers(jobs int) int {
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes every job and returns one result per job, in submission
// order. Cancellation via ctx stops dispatching promptly: jobs not yet
// started complete with ctx's error. Run itself only returns an error for
// malformed input; per-job failures live in the results.
func (p *Pipeline) Run(ctx context.Context, jobs []Job) ([]JobResult, error) {
	if p.Cache == nil {
		return nil, fmt.Errorf("engine: pipeline has no cache")
	}
	results := make([]JobResult, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	// depth tracks jobs accepted into this Run but not yet picked up by a
	// worker; the gauge sums across concurrent batches, so overload shows
	// up as queue depth on /metrics instead of only as latency.
	depth := QueueDepthGauge(p.Cache.Obs)
	depth.Add(int64(len(jobs)))
	for w := 0; w < p.effectiveWorkers(len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				depth.Dec()
				results[i] = p.runJob(ctx, i, jobs[i])
			}
		}()
	}
dispatch:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Mark every undispatched job cancelled.
			for j := i; j < len(jobs); j++ {
				results[j] = JobResult{Index: j}
				results[j].fail(ctx.Err())
			}
			depth.Add(int64(-(len(jobs) - i)))
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	return results, nil
}

// runJob certifies one batch job under its own "job" span. A panicking
// job — a buggy scheme, an armed panic fault — is contained: it fails its
// own result, never the worker or the process.
func (p *Pipeline) runJob(ctx context.Context, i int, job Job) (res JobResult) {
	ctx, sp := obs.Start(ctx, "job")
	defer func() {
		sp.End()
		if r := recover(); r != nil {
			res = JobResult{Index: i}
			res.fail(fmt.Errorf("engine: job %d panicked: %v", i, r))
		}
	}()
	res, _ = p.Certify(ctx, job)
	res.Index = i
	return res
}

// Certify runs one job through the certification sequence: generate (when
// lazy), compile (through the cache), decompose (prewarming the shared
// cache when the scheme reads it), prove, verify (sequentially or on the
// network simulator), then optionally the adversarial soundness sweep. A
// verify-only job (Certificates set) skips decompose and prove and
// verifies the submitted assignment. It returns the result and the
// assignment that was verified.
//
// Each phase runs under a child span of ctx's span, lands one sample in
// its phase histogram, and receives its weighted slice of any deadline on
// ctx (PhaseBudget); a cancelled phase fails the job with a
// *fault.CancelledError counted under that phase. Panics propagate to the
// caller: Run contains them per job, the server per request.
func (p *Pipeline) Certify(ctx context.Context, job Job) (res JobResult, a cert.Assignment) {
	reg := p.Cache.Obs
	if reg == nil {
		// A registry-less cache still runs fully instrumented; the
		// pipeline metrics land in the process-wide default registry.
		reg = obs.Default()
	}
	sp := obs.FromContext(ctx)
	sp.SetAttr("scheme", job.Scheme)
	completed := false
	defer func() {
		// A panic unwinds through here before any recovery runs, so an
		// uncompleted job counts as failed even while res.Err is unset.
		outcome := "accepted"
		switch {
		case res.Err != nil || !completed:
			outcome = "failed"
		case !res.Accepted:
			outcome = "rejected"
		}
		sp.SetAttr("outcome", outcome)
		jobCounter(reg, outcome).Inc()
		if ce, ok := fault.Cancelled(res.Err); ok {
			CancelledCounter(reg, ce.Phase).Inc()
		}
	}()
	if err := ctx.Err(); err != nil {
		res.fail(&fault.CancelledError{Phase: "request", Cause: err})
		return res, nil
	}
	g, params := job.Graph, job.Params
	if g == nil && job.Lazy != nil {
		_, gsp := obs.Start(ctx, "generate")
		var err error
		g, params, err = job.Lazy()
		gsp.End()
		res.Generate = gsp.Duration()
		PhaseHistogram(reg, "generate").Observe(res.Generate)
		if err != nil {
			res.fail(&PhaseError{"generate", err})
			return res, nil
		}
	}
	if g == nil {
		res.fail(&PhaseError{"generate", fmt.Errorf("engine: job has no graph")})
		return res, nil
	}
	// Compilation is memoized and not cancellable, so it runs on ctx
	// itself; the check after it stops a request whose budget the
	// compile used up from starting the expensive phases.
	t0 := time.Now()
	s, err := p.Cache.GetOrCompileCtx(ctx, job.Scheme, params)
	res.Compile = time.Since(t0)
	if err != nil {
		res.fail(&PhaseError{"compile", err})
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		res.fail(&PhaseError{"compile", &fault.CancelledError{Phase: "compile", Elapsed: res.Compile, Cause: err}})
		return res, nil
	}
	res.Scheme = s.Name()
	sp.SetAttr("n", g.N())
	a = job.Certificates
	if a == nil {
		dctx, dcancel := PhaseBudget(ctx, "decompose")
		res.Decompose = p.Cache.PrewarmDecomposition(dctx, s, g)
		dcancel()
		if err := ctx.Err(); err != nil {
			// The prewarm swallows errors by design; do not hand a
			// cancelled job to the prover's fallback paths.
			res.fail(&PhaseError{"decompose", &fault.CancelledError{Phase: "decompose", Elapsed: res.Decompose, Cause: err}})
			return res, nil
		}
		if err := provePre.Inject(); err != nil {
			res.fail(&PhaseError{"prove", err})
			return res, nil
		}
		pctx, pcancel := PhaseBudget(ctx, "prove")
		pctx, psp := obs.Start(pctx, "prove")
		a, err = cert.ProveWithContext(pctx, s, g)
		psp.End()
		pcancel()
		res.Prove = psp.Duration()
		PhaseHistogram(reg, "prove").Observe(res.Prove)
		if err != nil {
			res.fail(&PhaseError{"prove", err})
			return res, nil
		}
	}
	res.MaxBits = a.MaxBits()
	res.TotalBits = a.TotalBits()
	// Verify is the last budgeted phase, so it is handed the whole
	// remaining budget — verify-only jobs included.
	vctx, vcancel := PhaseBudget(ctx, "verify")
	vctx, vsp := obs.Start(vctx, "verify")
	if job.Distributed {
		vsp.SetAttr("mode", "distributed")
		var rep netsim.Report
		rep, err = p.sim().Run(vctx, g, s, a)
		res.Accepted, res.Rejecters = rep.Accepted, rep.Rejecters
	} else {
		vsp.SetAttr("mode", "sequential")
		var verdict cert.Result
		verdict, err = cert.RunSequentialCtx(vctx, g, s, a)
		res.Accepted, res.Rejecters = verdict.Accepted, verdict.Rejecters
	}
	vsp.End()
	vcancel()
	res.Verify = vsp.Duration()
	res.Distributed = job.Distributed
	PhaseHistogram(reg, "verify").Observe(res.Verify)
	if err != nil {
		res.fail(&PhaseError{"verify", err})
		return res, a
	}
	if job.Sweep != nil && res.Accepted {
		tampers := job.Sweep.Tampers
		if len(tampers) == 0 {
			tampers = cert.StandardTampers()
		}
		trials := job.Sweep.Trials
		if trials <= 0 {
			trials = 10
		}
		sctx, ssp := obs.Start(ctx, "sweep")
		sweep, serr := p.sim().Sweep(sctx, g, s, a, tampers, trials, job.Sweep.Seed)
		ssp.End()
		res.SweepTime = ssp.Duration()
		PhaseHistogram(reg, "sweep").Observe(res.SweepTime)
		if serr != nil {
			res.fail(&PhaseError{"sweep", serr})
			return res, a
		}
		res.Sweep = &sweep
	}
	completed = true
	return res, a
}

// BatchStats aggregates a batch's results.
type BatchStats struct {
	Jobs     int `json:"jobs"`
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Failed   int `json:"failed"`
	// MaxBits is the largest certificate over the whole batch.
	MaxBits int `json:"max_bits"`
	// TotalGenerate through TotalVerify sum the per-job phase times (CPU
	// work, not wall time: jobs overlap across workers). Generation and
	// compilation were previously dropped from the totals, silently
	// under-reporting batch cost for lazy and compile-heavy batches.
	TotalGenerate  time.Duration `json:"total_generate_ns,omitempty"`
	TotalCompile   time.Duration `json:"total_compile_ns,omitempty"`
	TotalDecompose time.Duration `json:"total_decompose_ns,omitempty"`
	TotalProve     time.Duration `json:"total_prove_ns"`
	TotalVerify    time.Duration `json:"total_verify_ns"`
	// SweepMutated, SweepDetected and SweepNoOps aggregate the jobs'
	// adversarial sweeps (zero when no job swept). SweepDetected <
	// SweepMutated means some corruption went undetected somewhere.
	SweepMutated  int `json:"sweep_mutated,omitempty"`
	SweepDetected int `json:"sweep_detected,omitempty"`
	SweepNoOps    int `json:"sweep_noops,omitempty"`
}

// Summarize folds results into batch statistics.
func Summarize(results []JobResult) BatchStats {
	st := BatchStats{Jobs: len(results)}
	for _, r := range results {
		switch {
		case r.Err != nil:
			st.Failed++
		case r.Accepted:
			st.Accepted++
		default:
			st.Rejected++
		}
		if r.MaxBits > st.MaxBits {
			st.MaxBits = r.MaxBits
		}
		st.TotalGenerate += r.Generate
		st.TotalCompile += r.Compile
		st.TotalDecompose += r.Decompose
		st.TotalProve += r.Prove
		st.TotalVerify += r.Verify
		if r.Sweep != nil {
			for _, ts := range r.Sweep.Stats {
				st.SweepMutated += ts.Mutated
				st.SweepDetected += ts.Detected
				st.SweepNoOps += ts.NoOps
			}
		}
	}
	return st
}
