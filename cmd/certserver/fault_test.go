package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graphgen"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wire"
)

// armPlan arms a fault plan for the duration of the test.
func armPlan(t *testing.T, spec string) {
	t.Helper()
	plan, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatalf("parse plan %q: %v", spec, err)
	}
	if err := fault.Arm(plan); err != nil {
		t.Fatalf("arm plan %q: %v", spec, err)
	}
	t.Cleanup(fault.Disarm)
}

// cancelledTotal sums certify_cancelled_total across the phases the
// server can report.
func cancelledTotal(s *server) int64 {
	var total int64
	for _, phase := range []string{"generate", "compile", "decompose", "prove", "verify", "request"} {
		total += engine.CancelledCounter(s.obs, phase).Value()
	}
	return total
}

// TestClientDisconnectFreesWorker is the cancellation regression: a
// client that walks away from an expensive certify must free the worker
// at the next checkpoint — within 250ms — instead of burning CPU on a
// response nobody will read, and must leak no goroutines.
func TestClientDisconnectFreesWorker(t *testing.T) {
	srv := newServer(registry.Default(), 2)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	// Warm the compile cache so the cancel lands in the prove/verify
	// phases (which checkpoint), not the compile (which is memoized and
	// fast once warm).
	warm, _ := graphgen.PartialKTree(64, 4, 0.85, rand.New(rand.NewSource(1)))
	var wbuf bytes.Buffer
	if err := wire.EncodeGraphStream(&wbuf, warm); err != nil {
		t.Fatal(err)
	}
	streamURL := ts.URL + "/certify?scheme=tw-mso&property=tw-bound&t=6"
	resp, err := http.Post(streamURL, streamContentType, &wbuf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm certify: status %d", resp.StatusCode)
	}

	// The real instance: a partial 4-tree at n=1e5. The request decodes
	// the stream and decomposes the graph heuristically; the
	// decomposition cache counts its miss when the decomposition ends,
	// and the prove and the verify that follow (about 0.1s each on a
	// 2-vCPU Xeon) checkpoint. The client walks away as soon as that
	// count moves, so however fast the machine, the request is inside a
	// checkpointed phase when it does; no fixed delay can promise that,
	// since a fast machine finishes the whole request first.
	g, _ := graphgen.PartialKTree(100_000, 4, 0.85, rand.New(rand.NewSource(9)))
	var buf bytes.Buffer
	if err := wire.EncodeGraphStream(&buf, g); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	misses := srv.cache.Decomps.Stats().Misses

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, streamURL, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", streamContentType)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()

	// Wait for the decomposition to end, then disconnect.
	decomposed := time.Now().Add(30 * time.Second)
	for srv.cache.Decomps.Stats().Misses == misses {
		if time.Now().After(decomposed) {
			t.Fatal("the request never finished decomposing")
		}
		time.Sleep(time.Millisecond)
	}
	before := cancelledTotal(srv)
	cancelAt := time.Now()
	cancel()

	// The worker must reach a cancellation checkpoint and abandon the
	// request within 250ms of the disconnect. Under the race detector the
	// instrumented binary runs the same strides several times slower, so
	// the wall-clock budget scales; the 250ms contract is pinned by the
	// ordinary build.
	budget := 250 * time.Millisecond
	if raceEnabled {
		budget = 4 * budget
	}
	deadline := time.Now().Add(budget)
	for cancelledTotal(srv) == before {
		if time.Now().After(deadline) {
			t.Fatalf("worker still running %v after client disconnect (cancelled_total stuck at %d)",
				time.Since(cancelAt), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("worker freed in %v", time.Since(cancelAt))
	<-done

	// Zero goroutine leak: the count must come back to (near) the
	// pre-request baseline once the connection bookkeeping drains.
	leakDeadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchPanicPoisonedJob arms a one-shot panic inside the prove phase
// and runs a batch: the poisoned job must fail with a contained panic
// error, every other job must complete normally, and the server must
// keep serving.
func TestBatchPanicPoisonedJob(t *testing.T) {
	armPlan(t, "seed=1;engine.prove.pre:panic#1")
	ts := newTestServer(t)

	jobs := make([]map[string]any, 0, 6)
	for i := 0; i < 6; i++ {
		jobs = append(jobs, map[string]any{
			"scheme":    "tree-mso",
			"params":    map[string]any{"property": "perfect-matching"},
			"generator": map[string]any{"kind": "path", "n": 16 + 2*i},
		})
	}
	var out struct {
		Stats   engine.BatchStats `json:"stats"`
		Results []batchJobResult  `json:"results"`
	}
	resp := postJSON(t, ts.URL+"/batch", map[string]any{"workers": 2, "jobs": jobs}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	panicked := 0
	for _, r := range out.Results {
		if r.Error != "" {
			if !strings.Contains(r.Error, "panicked") {
				t.Fatalf("job %d failed with %q, want a contained panic", r.Index, r.Error)
			}
			panicked++
		}
	}
	if panicked != 1 {
		t.Fatalf("%d poisoned jobs, want exactly 1 (results %+v)", panicked, out.Results)
	}
	if out.Stats.Accepted != len(jobs)-1 {
		t.Fatalf("stats = %+v, want %d accepted", out.Stats, len(jobs)-1)
	}

	// The process survived; a clean follow-up batch must succeed.
	fault.Disarm()
	var again struct {
		Stats engine.BatchStats `json:"stats"`
	}
	resp = postJSON(t, ts.URL+"/batch", map[string]any{"workers": 2, "jobs": jobs[:2]}, &again)
	if resp.StatusCode != http.StatusOK || again.Stats.Accepted != 2 {
		t.Fatalf("post-panic batch: status %d stats %+v", resp.StatusCode, again.Stats)
	}
}

// TestRecovererContainsPanic panics inside an HTTP handler (via the
// compile fault point) and checks the containment contract: 500 with the
// error envelope and the request id, the panic counter ticks, and the
// server keeps serving.
func TestRecovererContainsPanic(t *testing.T) {
	armPlan(t, "seed=1;engine.compile.build:panic#1")
	srv := newServer(registry.Default(), 2)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var out errorJSON
	resp := postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme":    "tree-mso",
		"params":    map[string]any{"property": "perfect-matching"},
		"generator": map[string]any{"kind": "path", "n": 8},
	}, &out)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if out.Error == "" {
		t.Fatal("panic response missing the error envelope")
	}
	reqID := resp.Header.Get("X-Request-Id")
	if reqID == "" || !strings.Contains(out.Error, reqID) {
		t.Fatalf("panic envelope %q does not name request id %q", out.Error, reqID)
	}
	if got := srv.obs.Counter(metricPanics, "", obs.L("path", "/certify")).Value(); got != 1 {
		t.Fatalf("http_panics_total{/certify} = %d, want 1", got)
	}

	// The flight was unpinned and the process lives: the same request
	// must now succeed.
	fault.Disarm()
	var ok certifyResponse
	resp = postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme":    "tree-mso",
		"params":    map[string]any{"property": "perfect-matching"},
		"generator": map[string]any{"kind": "path", "n": 8},
	}, &ok)
	if resp.StatusCode != http.StatusOK || !ok.Result.Accepted {
		t.Fatalf("post-panic certify: status %d result %+v", resp.StatusCode, ok.Result)
	}
}

// TestDeadlineBudgetExceeded gives the server a tight request budget and
// stalls the decompose phase past it: the response must be the 503
// deadline mapping with the envelope, and both the per-path timeout
// counter and the per-phase cancellation counter must tick.
func TestDeadlineBudgetExceeded(t *testing.T) {
	armPlan(t, "seed=1;engine.decomp.compute:delay=400ms")
	srv := newServer(registry.Default(), 2)
	srv.requestTimeout = 60 * time.Millisecond
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	var out errorJSON
	resp := postJSON(t, ts.URL+"/certify", map[string]any{
		"scheme": "tw-mso",
		"params": map[string]any{"property": "tw-bound", "t": 6},
		"graph":  wire.GraphToJSON(graphgen.Path(64)),
	}, &out)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %+v)", resp.StatusCode, out)
	}
	if !strings.Contains(out.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", out.Error)
	}
	if got := srv.obs.Counter(metricTimeouts, "", obs.L("path", "/certify")).Value(); got != 1 {
		t.Fatalf("http_request_timeouts_total{/certify} = %d, want 1", got)
	}
	if cancelledTotal(srv) == 0 {
		t.Fatal("certify_cancelled_total never ticked")
	}
}

// TestEndpointTimeoutOverride checks per-endpoint budgets take
// precedence over the default and that parseEndpointTimeouts enforces
// its grammar.
func TestEndpointTimeoutOverride(t *testing.T) {
	srv := newServer(registry.Default(), 2)
	srv.requestTimeout = time.Minute
	srv.endpointTimeouts = map[string]time.Duration{"/batch": time.Second}
	if d := srv.timeoutFor("/batch"); d != time.Second {
		t.Fatalf("timeoutFor(/batch) = %v", d)
	}
	if d := srv.timeoutFor("/certify"); d != time.Minute {
		t.Fatalf("timeoutFor(/certify) = %v", d)
	}

	got, err := parseEndpointTimeouts("/batch=120s, /certify=60s")
	if err != nil || got["/batch"] != 120*time.Second || got["/certify"] != 60*time.Second {
		t.Fatalf("parseEndpointTimeouts: %v %v", got, err)
	}
	for _, bad := range []string{"", "batch=1s", "/batch", "/batch=soon", " , "} {
		if _, err := parseEndpointTimeouts(bad); err == nil {
			t.Errorf("parseEndpointTimeouts(%q) accepted", bad)
		}
	}
}

// TestChaosSweep is the seeded fault sweep: nine plans spanning every
// registered fault point and action drive the standard workload mix
// against a live in-process server; the netsim barrier takes both errors
// and panics, so per-worker containment runs while the other workers of
// a round are still claiming chunks: a plan that panics the barrier must
// advance netsim_shard_panics_total. Invariants, per plan: the process
// survives (a clean probe succeeds afterwards), every non-2xx response
// carries the JSON error envelope, and no goroutines leak across the
// sweep.
func TestChaosSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is seconds-long")
	}
	plans := []string{
		"seed=101;engine.prove.pre:error@0.5",
		"seed=102;engine.prove.pre:panic@0.25",
		"seed=103;engine.decomp.compute:error@0.5",
		"seed=104;engine.compile.build:error@0.4",
		"seed=105;engine.compile.build:panic@0.2",
		"seed=106;netsim.round.barrier:error@0.3",
		"seed=107;wire.stream.chunk:corrupt@0.5",
		"seed=108;engine.prove.pre:delay=10ms@0.5;engine.decomp.compute:panic@0.2",
		"seed=109;netsim.round.barrier:panic@0.2",
	}
	mix, err := loadgen.StandardMix()
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(registry.Default(), 4)
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	baseline := runtime.NumGoroutine()
	for i, spec := range plans {
		t.Run(fmt.Sprintf("plan%02d", i+1), func(t *testing.T) {
			shardPanics := srv.obs.Counter(netsim.MetricShardPanics, "")
			panicsBefore := shardPanics.Value()
			armPlan(t, spec)
			rep, err := loadgen.Run(context.Background(), loadgen.Options{
				BaseURL:         ts.URL,
				Rate:            80,
				Duration:        300 * time.Millisecond,
				Mix:             mix,
				Seed:            int64(1000 + i),
				Timeout:         10 * time.Second,
				VerifyEnvelope:  true,
				SkipServerDelta: true,
			})
			if err != nil {
				t.Fatalf("plan %q: %v", spec, err)
			}
			if rep.Requests == 0 {
				t.Fatalf("plan %q measured no requests", spec)
			}
			if rep.EnvelopeViolations > 0 {
				t.Fatalf("plan %q: %d non-2xx response(s) without the error envelope", spec, rep.EnvelopeViolations)
			}
			fault.Disarm()
			if strings.Contains(spec, "netsim.round.barrier:panic") && shardPanics.Value() == panicsBefore {
				t.Fatalf("plan %q: no netsim worker panicked, so containment never ran", spec)
			}

			// Liveness probe: the server must still answer cleanly.
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatalf("plan %q killed the server: %v", spec, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("plan %q: healthz status %d", spec, resp.StatusCode)
			}
		})
	}

	// No goroutine leak across the whole sweep once stragglers drain.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		}
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak after sweep: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
