package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/treewidth"
	"repro/internal/wire"
)

// maxBodyBytes bounds request bodies; graphs above this limit should use
// the batch generator instead of shipping edges over the wire.
const maxBodyBytes = 32 << 20

// streamContentType selects the binary streaming graph format (wire v2)
// on POST /certify. Scheme parameters ride in the query string and the
// response is the stats-only JSON (no certificate echo): the path exists
// for graphs too large to be pleasant as JSON.
const streamContentType = "application/x-graph-stream"

// maxStreamBodyBytes bounds binary stream bodies. The stream decoder
// never buffers the body whole, so the cap can sit well above the JSON
// limit: a million-vertex partial 4-tree streams in ~2 bytes per edge.
const maxStreamBodyBytes = 256 << 20

// server wires the registry, the compile cache, the batch pipeline and
// the network simulator behind the JSON API.
type server struct {
	reg   *registry.Registry
	cache *engine.Cache
	pipe  *engine.Pipeline
	// sim is the long-lived sharded simulator: keeping one engine per
	// server is what lets its sync.Pool shard buffers actually get
	// reused across /simulate requests.
	sim *netsim.Engine
	// obs is the server's metric registry: the engine caches, the phase
	// histograms, the simulator and the HTTP layer all write here, and
	// /metrics and /healthz both read from it — one source of truth.
	obs   *obs.Registry
	start time.Time
	// logger, when set, receives one structured line per request; nil
	// (the test default) disables request logging.
	logger *log.Logger
	// pprof exposes /debug/pprof when set (the -pprof flag).
	pprof bool
	// maxInflight bounds concurrent requests per certification endpoint
	// (the -max-inflight flag); <= 0 means defaultMaxInflight. Excess
	// arrivals are shed with 429 + Retry-After instead of queueing.
	maxInflight int
	// requestTimeout is the default per-request deadline budget
	// (-request-timeout); <= 0 disables the deadline middleware.
	requestTimeout time.Duration
	// endpointTimeouts overrides requestTimeout per path
	// (-endpoint-timeouts).
	endpointTimeouts map[string]time.Duration
}

// newServer builds a server around the given registry with the given
// default worker count (<= 0 means GOMAXPROCS).
func newServer(reg *registry.Registry, workers int) *server {
	oreg := obs.NewRegistry()
	cache := engine.NewCacheObs(reg, oreg)
	// One decomposition cache per server: tw-mso jobs and /decompose
	// requests share per-graph decompositions across the whole process.
	cache.Decomps = engine.NewDecompCacheObs(oreg)
	sim := &netsim.Engine{Workers: workers, Obs: oreg}
	// Register the pipeline queue-depth gauge now rather than on the
	// first batch, so the series is scrapeable (at zero) from boot.
	engine.QueueDepthGauge(oreg)
	return &server{
		reg:   reg,
		cache: cache,
		pipe:  &engine.Pipeline{Cache: cache, Workers: workers, Sim: sim},
		sim:   sim,
		obs:   oreg,
		start: time.Now(),
	}
}

// routes returns the HTTP handler, wrapped in the request observability
// middleware.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /schemes", s.handleSchemes)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Every certification endpoint sits behind its own admission gate:
	// read-only probes (/schemes, /healthz, /metrics) stay ungated so the
	// server remains observable precisely when it is shedding.
	mux.HandleFunc("POST /certify", s.admit(s.newGate("/certify", s.maxInflight), s.handleCertify))
	mux.HandleFunc("POST /verify", s.admit(s.newGate("/verify", s.maxInflight), s.handleVerify))
	mux.HandleFunc("POST /simulate", s.admit(s.newGate("/simulate", s.maxInflight), s.handleSimulate))
	mux.HandleFunc("POST /batch", s.admit(s.newGate("/batch", s.maxInflight), s.handleBatch))
	mux.HandleFunc("POST /decompose", s.admit(s.newGate("/decompose", s.maxInflight), s.handleDecompose))
	if s.pprof {
		registerPprof(mux)
	}
	// instrument assigns the request id and records status/latency; the
	// recoverer inside it converts panics to 500s that instrument then
	// counts; the deadline layer innermost, so handlers (and the engine
	// below them) see the budget on their context.
	return s.instrument(s.recoverer(s.deadline(mux)))
}

// paramsJSON is the wire form of registry.Params.
type paramsJSON struct {
	Property string `json:"property,omitempty"`
	Formula  string `json:"formula,omitempty"`
	T        int    `json:"t,omitempty"`
}

func (p paramsJSON) toParams() registry.Params {
	return registry.Params{Property: p.Property, Formula: p.Formula, T: p.T}
}

// validate applies the hostile-input guards to client-supplied params
// before any compilation work: formulas are size-capped, parseable
// sentences or the request dies with a 400 here.
func (p paramsJSON) validate() error {
	if p.Formula == "" {
		return nil
	}
	return wire.ValidateFormula(p.Formula)
}

// graphSource is the graph half of a request: an explicit graph or a
// server-side generator spec, exactly one of them.
type graphSource struct {
	Graph     *wire.GraphJSON     `json:"graph,omitempty"`
	Generator *wire.GeneratorSpec `json:"generator,omitempty"`
}

// validate checks the source without building anything, so a bad spec
// fails its request before any work is queued.
func (src graphSource) validate() error {
	switch {
	case src.Graph != nil && src.Generator != nil:
		return fmt.Errorf("graph and generator are mutually exclusive")
	case src.Graph != nil:
		return nil
	case src.Generator != nil:
		return src.Generator.Validate()
	default:
		return fmt.Errorf("no graph or generator given")
	}
}

// build materializes the graph, plus the generator's witness for
// generated graphs.
func (src graphSource) build() (*graph.Graph, wire.Witness, error) {
	if src.Graph != nil {
		g, err := src.Graph.ToGraph()
		return g, wire.Witness{}, err
	}
	return src.Generator.Build()
}

// jobJSON is one certification request: a scheme plus a graph source.
type jobJSON struct {
	Scheme string     `json:"scheme"`
	Params paramsJSON `json:"params"`
	graphSource
}

// job validates the request and builds its engine job. Explicit graphs
// are parsed now; generated ones are built now, or — lazy, for batches —
// inside a pipeline worker, which bounds residency by the worker count
// and runs generation in parallel.
func (j jobJSON) job(reg *registry.Registry, lazy bool) (engine.Job, error) {
	if err := j.Params.validate(); err != nil {
		return engine.Job{}, err
	}
	if err := j.graphSource.validate(); err != nil {
		return engine.Job{}, err
	}
	job := engine.Job{Scheme: j.Scheme}
	if lazy && j.Generator != nil {
		job.Lazy = func() (*graph.Graph, registry.Params, error) { return j.materialize(reg) }
		return job, nil
	}
	var err error
	job.Graph, job.Params, err = j.materialize(reg)
	return job, err
}

// materialize builds the job's graph and scheme params. Generator-built
// graphs wire the generator's witness into the params so witness-driven
// schemes prove in polynomial time — the elimination tree for
// treedepth-style schemes, the tree decomposition for tw-mso; schemes
// that cannot use either don't get one, keeping them cacheable.
func (j jobJSON) materialize(reg *registry.Registry) (*graph.Graph, registry.Params, error) {
	g, witness, err := j.build()
	params := j.Params.toParams()
	attachWitness(&params, witness, reg, j.Scheme)
	return g, params, err
}

// attachWitness copies the witness parts the named scheme declares it can
// use into the params. Unknown names get nothing; the compile step reports
// them properly.
func attachWitness(params *registry.Params, w wire.Witness, reg *registry.Registry, scheme string) {
	e, ok := reg.Lookup(scheme)
	if !ok {
		return
	}
	if e.UsesWitness {
		params.Provider = w.Model
	}
	if e.UsesDecomposition {
		params.DecompProvider = w.Decomp
	}
}

// errorJSON is the uniform error envelope. Traceback is present only for
// EMSO DP traceback failures (see writeFailure).
type errorJSON struct {
	Error     string         `json:"error"`
	Traceback *tracebackJSON `json:"traceback,omitempty"`
}

// tracebackJSON is the structured diagnostic of a
// treewidth.TracebackError: which nice-decomposition node the witness
// extraction got stuck at, its kind and its bag.
type tracebackJSON struct {
	Node int    `json:"node"`
	Kind string `json:"kind"`
	Bag  []int  `json:"bag"`
}

// statusClientClosedRequest is nginx's conventional 499: the client went
// away and the server abandoned the work at a cancellation checkpoint
// instead of finishing a response nobody will read.
const statusClientClosedRequest = 499

// writeFailure is the server's one mapping from a failed job (an
// *engine.PhaseError, or a cancellation) onto a response:
//
//   - cancellations: 499 when the client disconnected, 503 when the
//     deadline budget expired, naming the abandoned phase;
//   - generate and compile failures: 400, the request cannot be built;
//   - decompose and prove failures: 422, the graph cannot be certified as
//     requested — except an EMSO DP traceback error, an internal invariant
//     violation surfaced as a 500 carrying the node kind and bag;
//   - verify failures: 400 when the client submitted the certificates
//     (they do not fit the graph), else 500 like every other failure.
func writeFailure(w http.ResponseWriter, err error, submitted bool) {
	deadline := errors.Is(err, context.DeadlineExceeded)
	if deadline || errors.Is(err, context.Canceled) {
		phase := "request"
		if ce, ok := fault.Cancelled(err); ok {
			phase = ce.Phase
		}
		if deadline {
			writeError(w, http.StatusServiceUnavailable, "deadline exceeded during %s: %v", phase, err)
		} else {
			writeError(w, statusClientClosedRequest, "client closed request during %s: %v", phase, err)
		}
		return
	}
	phase := ""
	if pe := (*engine.PhaseError)(nil); errors.As(err, &pe) {
		phase = pe.Phase
	}
	var te *treewidth.TracebackError
	switch {
	case phase == "generate", phase == "compile":
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.As(err, &te):
		writeJSON(w, http.StatusInternalServerError, errorJSON{
			Error:     err.Error(),
			Traceback: &tracebackJSON{Node: te.Node, Kind: te.Kind.String(), Bag: te.Bag},
		})
	case phase == "decompose", phase == "prove":
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case phase == "verify" && submitted:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// readJSON decodes the request body strictly.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return false
	}
	return true
}

// handleSchemes serves the registry listing.
func (s *server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Schemes []registry.Info `json:"schemes"`
	}{s.reg.List()})
}

// admissionHealth is the /healthz view of the admission layer, read from
// the same registry series /metrics exposes (the PR 6 no-drift
// invariant): total sheds, currently admitted requests and the pipeline
// queue depth.
type admissionHealth struct {
	Shed       int64 `json:"shed"`
	Inflight   int64 `json:"inflight"`
	QueueDepth int64 `json:"queue_depth"`
}

// handleHealthz reports liveness, uptime, cache effectiveness for the
// compile cache, the decomposition cache and the formula canonicalization
// memo, and the admission-control state. Everything reads the same obs
// series /metrics exposes, so the two endpoints can never disagree.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var requests int64
	var adm admissionHealth
	for _, snap := range s.obs.Snapshot() {
		switch snap.Name {
		case "http_requests_total":
			requests += snap.Value
		case metricShed:
			adm.Shed += snap.Value
		case metricInflight:
			adm.Inflight += snap.Value
		case engine.MetricQueueDepth:
			adm.QueueDepth += snap.Value
		}
	}
	writeJSON(w, http.StatusOK, struct {
		OK            bool                `json:"ok"`
		UptimeSeconds float64             `json:"uptime_seconds"`
		Requests      int64               `json:"requests"`
		Admission     admissionHealth     `json:"admission"`
		Cache         engine.Stats        `json:"cache"`
		Decomps       engine.DecompStats  `json:"decompositions"`
		Formulas      engine.FormulaStats `json:"formulas"`
	}{true, time.Since(s.start).Seconds(), requests, adm,
		s.cache.Stats(), s.cache.Decomps.Stats(), s.cache.FormulaStats()})
}

// certifyRequest is the POST /certify payload.
type certifyRequest struct {
	jobJSON
	// Distributed verifies on the sharded network simulator instead of
	// the sequential referee (identical verdicts).
	Distributed bool `json:"distributed,omitempty"`
	// IncludeCertificates echoes the honest assignment in the response.
	IncludeCertificates bool `json:"include_certificates,omitempty"`
}

type certifyResponse struct {
	Scheme       string          `json:"scheme"`
	Result       wire.ResultJSON `json:"result"`
	Certificates []string        `json:"certificates,omitempty"`
	// DistributedAccepted is present when the simulator ran.
	DistributedAccepted *bool `json:"distributed_accepted,omitempty"`
	CompileNS           int64 `json:"compile_ns"`
	DecomposeNS         int64 `json:"decompose_ns,omitempty"`
	ProveNS             int64 `json:"prove_ns"`
	VerifyNS            int64 `json:"verify_ns"`
}

// newCertifyResponse renders a certified job.
func newCertifyResponse(res engine.JobResult) certifyResponse {
	return certifyResponse{
		Scheme:      res.Scheme,
		Result:      resultJSON(res),
		CompileNS:   res.Compile.Nanoseconds(),
		DecomposeNS: res.Decompose.Nanoseconds(),
		ProveNS:     res.Prove.Nanoseconds(),
		VerifyNS:    res.Verify.Nanoseconds(),
	}
}

// resultJSON is the wire form of a job's verdict and certificate sizes.
func resultJSON(res engine.JobResult) wire.ResultJSON {
	return wire.ResultJSON{
		Accepted:  res.Accepted,
		Rejecters: res.Rejecters,
		MaxBits:   res.MaxBits,
		TotalBits: res.TotalBits,
	}
}

func (s *server) handleCertify(w http.ResponseWriter, r *http.Request) {
	if mediaType(r) == streamContentType {
		s.handleCertifyStream(w, r)
		return
	}
	var req certifyRequest
	if !readJSON(w, r, &req) {
		return
	}
	job, err := req.job(s.reg, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job.Distributed = req.Distributed
	res, a := s.pipe.Certify(r.Context(), job)
	if res.Err != nil {
		writeFailure(w, res.Err, false)
		return
	}
	resp := newCertifyResponse(res)
	if req.IncludeCertificates {
		resp.Certificates = wire.AssignmentToStrings(a)
	}
	if req.Distributed {
		resp.DistributedAccepted = &res.Accepted
	}
	writeJSON(w, http.StatusOK, resp)
}

// mediaType returns the request's Content-Type without parameters.
func mediaType(r *http.Request) string {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// handleCertifyStream is the binary branch of POST /certify: the body is
// one wire-v2 graph stream, decoded incrementally (no contiguous buffer
// on the server side no matter how large the graph), and the scheme
// selection rides in the query string — scheme, property, formula, t.
// The response is the stats-only certifyResponse: echoing a million
// per-vertex certificates back as JSON would defeat the point of the
// binary path, so include_certificates does not exist here.
func (s *server) handleCertifyStream(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	q := r.URL.Query()
	p := paramsJSON{Property: q.Get("property"), Formula: q.Get("formula")}
	if ts := q.Get("t"); ts != "" {
		t, err := strconv.Atoi(ts)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad t %q", ts)
			return
		}
		p.T = t
	}
	if err := p.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	schemeName := q.Get("scheme")
	if schemeName == "" {
		writeError(w, http.StatusBadRequest, "stream certify needs ?scheme=")
		return
	}
	_, dsp := obs.Start(ctx, "decode")
	g, err := wire.DecodeGraphStream(http.MaxBytesReader(w, r.Body, maxStreamBodyBytes), wire.StreamLimits{})
	dsp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, _ := s.pipe.Certify(ctx, engine.Job{Graph: g, Scheme: schemeName, Params: p.toParams()})
	if res.Err != nil {
		writeFailure(w, res.Err, false)
		return
	}
	writeJSON(w, http.StatusOK, newCertifyResponse(res))
}

// tamperSweep turns an optional wire tamper spec into the engine's sweep
// request.
func tamperSweep(spec *wire.TamperSpec) (*engine.TamperSweep, error) {
	if spec == nil {
		return nil, nil
	}
	tampers, err := spec.Tampers()
	if err != nil {
		return nil, err
	}
	return &engine.TamperSweep{Tampers: tampers, Trials: spec.EffectiveTrials(), Seed: spec.Seed}, nil
}

// simulateRequest is the POST /simulate payload: run the sharded network
// simulator as a served workload. The scheme proves honestly unless
// certificates are supplied, the round runs on a bounded worker pool, and
// an optional tamper spec turns the request into an adversarial soundness
// sweep.
type simulateRequest struct {
	jobJSON
	// Certificates, when present, are verified instead of an honest
	// proof (the submitted-assignment referee, distributed).
	Certificates []string `json:"certificates,omitempty"`
	// Workers bounds the simulator's worker pool for this request;
	// <= 0 uses the server's long-lived engine (its -workers setting).
	Workers int `json:"workers,omitempty"`
	// Tamper additionally sweeps the named tamper family over the
	// assignment and reports detection statistics. The sweep only runs
	// when the base round accepted: detection rates against an
	// already-rejected baseline would be meaningless.
	Tamper *wire.TamperSpec `json:"tamper,omitempty"`
}

type simulateResponse struct {
	Scheme string          `json:"scheme"`
	Result wire.ResultJSON `json:"result"`
	// Rounds and Workers describe the simulated network round.
	Rounds  int `json:"rounds"`
	Workers int `json:"workers"`
	// Sweep is present when the request carried a tamper spec.
	Sweep       *netsim.SweepReport `json:"sweep,omitempty"`
	DecomposeNS int64               `json:"decompose_ns,omitempty"`
	ProveNS     int64               `json:"prove_ns,omitempty"`
	VerifyNS    int64               `json:"verify_ns"`
	SweepNS     int64               `json:"sweep_ns,omitempty"`
}

func (s *server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !readJSON(w, r, &req) {
		return
	}
	job, err := req.job(s.reg, false)
	if err == nil {
		job.Sweep, err = tamperSweep(req.Tamper)
	}
	if err == nil && len(req.Certificates) > 0 {
		job.Certificates, err = wire.AssignmentFromStrings(req.Certificates)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	job.Distributed = true
	// The shared engine serves the common case so its buffer pool stays
	// warm; an explicit per-request worker bound gets its own engine
	// (writing into the same registry), as /batch does.
	pipe, sim := s.pipe, s.sim
	if req.Workers > 0 {
		sim = &netsim.Engine{Workers: req.Workers, Obs: s.obs}
		pipe = &engine.Pipeline{Cache: s.cache, Sim: sim}
	}
	res, _ := pipe.Certify(r.Context(), job)
	if res.Err != nil {
		writeFailure(w, res.Err, job.Certificates != nil)
		return
	}
	writeJSON(w, http.StatusOK, simulateResponse{
		Scheme: res.Scheme,
		Result: resultJSON(res),
		// A radius-1 scheme verifies in one exchange round.
		Rounds:      1,
		Workers:     sim.EffectiveWorkers(job.Graph.N()),
		Sweep:       res.Sweep,
		DecomposeNS: res.Decompose.Nanoseconds(),
		ProveNS:     res.Prove.Nanoseconds(),
		VerifyNS:    res.Verify.Nanoseconds(),
		SweepNS:     res.SweepTime.Nanoseconds(),
	})
}

// verifyRequest is the POST /verify payload: a graph, a scheme and a
// claimed assignment to referee.
type verifyRequest struct {
	jobJSON
	Certificates []string `json:"certificates"`
}

func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req verifyRequest
	if !readJSON(w, r, &req) {
		return
	}
	job, err := req.job(s.reg, false)
	if err == nil {
		job.Certificates, err = wire.AssignmentFromStrings(req.Certificates)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, _ := s.pipe.Certify(r.Context(), job)
	if res.Err != nil {
		writeFailure(w, res.Err, true)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Scheme string          `json:"scheme"`
		Result wire.ResultJSON `json:"result"`
	}{res.Scheme, resultJSON(res)})
}

// batchRequest is the POST /batch payload.
type batchRequest struct {
	// Workers overrides the server's worker count for this batch.
	Workers int       `json:"workers,omitempty"`
	Jobs    []jobJSON `json:"jobs"`
	// Distributed verifies every job on the sharded network simulator
	// instead of the sequential referee.
	Distributed bool `json:"distributed,omitempty"`
	// Tamper runs the adversarial soundness sweep described by the spec
	// on every accepted job; per-tamper detection statistics land on each
	// result and aggregate into the batch stats.
	Tamper *wire.TamperSpec `json:"tamper,omitempty"`
}

// batchJobResult is the JSON form of one batch job: engine.JobResult
// serializes its phase durations as *_ns integers itself.
type batchJobResult = engine.JobResult

// maxBatchJobs bounds a single batch; larger workloads should be split
// across requests.
const maxBatchJobs = 10000

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no jobs")
		return
	}
	if len(req.Jobs) > maxBatchJobs {
		writeError(w, http.StatusBadRequest, "batch has %d jobs (limit %d)", len(req.Jobs), maxBatchJobs)
		return
	}
	sweep, err := tamperSweep(req.Tamper)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	jobs := make([]engine.Job, len(req.Jobs))
	for i, jj := range req.Jobs {
		job, err := jj.job(s.reg, true)
		if err != nil {
			writeError(w, http.StatusBadRequest, "job %d: %v", i, err)
			return
		}
		job.Distributed, job.Sweep = req.Distributed, sweep
		jobs[i] = job
	}
	pipe := s.pipe
	if req.Workers > 0 {
		pipe = &engine.Pipeline{Cache: s.cache, Workers: req.Workers, Sim: s.sim}
	}
	t0 := time.Now()
	results, err := pipe.Run(r.Context(), jobs)
	wallNS := time.Since(t0).Nanoseconds()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Stats   engine.BatchStats  `json:"stats"`
		WallNS  int64              `json:"wall_ns"`
		Results []engine.JobResult `json:"results"`
	}{engine.Summarize(results), wallNS, results})
}

// decomposeRequest is the POST /decompose payload: compute a tree
// decomposition of a graph (explicit or generated server-side) as a
// served artifact — the cacheable per-graph state the tw-mso workload is
// built on, exposed directly.
type decomposeRequest struct {
	graphSource
	// Method is "auto" (default: best heuristic through the shared
	// decomposition cache), "min-fill", "min-degree", or "exact"
	// (branch-and-bound, n <= treewidth.ExactLimit).
	Method string `json:"method,omitempty"`
	// Nice additionally converts to a nice decomposition and reports its
	// node count (the DP substrate size).
	Nice bool `json:"nice,omitempty"`
	// IncludeDecomposition echoes the bags and tree edges; width and
	// shape statistics are always reported.
	IncludeDecomposition bool `json:"include_decomposition,omitempty"`
}

type decomposeResponse struct {
	N      int    `json:"n"`
	M      int    `json:"m"`
	Method string `json:"method"`
	Width  int    `json:"width"`
	Bags   int    `json:"bags"`
	// Valid is the result of the full validity check (coverage, edge
	// coverage, trace connectivity) — always true for a healthy server.
	Valid         bool                    `json:"valid"`
	NiceNodes     int                     `json:"nice_nodes,omitempty"`
	Decomposition *wire.DecompositionJSON `json:"decomposition,omitempty"`
	ComputeNS     int64                   `json:"compute_ns"`
}

func (s *server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	var req decomposeRequest
	if !readJSON(w, r, &req) {
		return
	}
	var g *graph.Graph
	err := req.validate()
	if err == nil {
		g, _, err = req.build()
	}
	if err == nil && g.N() == 0 {
		err = fmt.Errorf("graph is empty")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// fail counts a cancelled phase here: /decompose computes outside the
	// certify runner, which counts everything else.
	fail := func(phase string, err error) {
		if ce, ok := fault.Cancelled(err); ok {
			engine.CancelledCounter(s.obs, ce.Phase).Inc()
		}
		writeFailure(w, &engine.PhaseError{Phase: phase, Err: err}, false)
	}
	method := req.Method
	if method == "" {
		method = "auto"
	}
	var d *treewidth.Decomposition
	t0 := time.Now()
	switch method {
	case "auto":
		d, err = s.cache.Decomps.GetCtx(r.Context(), g)
	case "min-fill":
		d, _, _, err = treewidth.MinFillCtx(r.Context(), g)
	case "min-degree":
		d, _, _, err = treewidth.MinDegreeCtx(r.Context(), g)
	case "exact":
		_, d, err = treewidth.ExactCtx(r.Context(), g)
	default:
		writeError(w, http.StatusBadRequest, "unknown method %q (known: auto, min-fill, min-degree, exact)", method)
		return
	}
	computeNS := time.Since(t0).Nanoseconds()
	if err != nil {
		fail("decompose", err)
		return
	}
	resp := decomposeResponse{
		N:         g.N(),
		M:         g.M(),
		Method:    method,
		Width:     d.Width(),
		Bags:      d.NumBags(),
		Valid:     treewidth.IsValid(g, d),
		ComputeNS: computeNS,
	}
	if req.Nice {
		nice, err := treewidth.MakeNiceCtx(r.Context(), d, 0)
		if err != nil {
			fail("nice", err)
			return
		}
		resp.NiceNodes = nice.NumNodes()
	}
	if req.IncludeDecomposition {
		j := wire.DecompositionToJSON(d)
		resp.Decomposition = &j
	}
	writeJSON(w, http.StatusOK, resp)
}
