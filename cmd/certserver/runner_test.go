package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/wire"
)

// Every certify endpoint runs through the one engine runner, so every one
// honours the request deadline the same way: a phase stalled past the
// budget ends in a 503 with the JSON envelope, and the cancellation is
// counted under the stalled phase.
func TestCertifyEndpointsHonourDeadline(t *testing.T) {
	g := wire.GraphToJSON(graphgen.Path(64))
	twMSO := map[string]any{"property": "tw-bound", "t": 6}
	treeMSO := map[string]any{"property": "perfect-matching"}
	honest, err := engine.NewCache(registry.Default()).GetOrCompile("tree-mso", registry.Params{Property: "perfect-matching"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := honest.Prove(graphgen.Path(64))
	if err != nil {
		t.Fatal(err)
	}
	certs := wire.AssignmentToStrings(a)
	cases := []struct {
		name, plan, path string
		body             map[string]any
		// warm compiles the scheme before the plan is armed, so the stall
		// lands in a later phase.
		warm  bool
		phase string
	}{
		{"certify/decompose", "engine.decomp.compute:delay=500ms", "/certify",
			map[string]any{"scheme": "tw-mso", "params": twMSO, "graph": g}, true, "decompose"},
		{"simulate-honest/decompose", "engine.decomp.compute:delay=500ms", "/simulate",
			map[string]any{"scheme": "tw-mso", "params": twMSO, "graph": g}, true, "decompose"},
		{"simulate-honest/compile", "engine.compile.build:delay=500ms", "/simulate",
			map[string]any{"scheme": "tw-mso", "params": twMSO, "graph": g}, false, "compile"},
		{"simulate-submitted/verify", "netsim.round.barrier:delay=500ms", "/simulate",
			map[string]any{"scheme": "tree-mso", "params": treeMSO, "graph": g, "certificates": certs}, true, "verify"},
		{"simulate-submitted/compile", "engine.compile.build:delay=500ms", "/simulate",
			map[string]any{"scheme": "tree-mso", "params": treeMSO, "graph": g, "certificates": certs}, false, "compile"},
		{"verify/compile", "engine.compile.build:delay=500ms", "/verify",
			map[string]any{"scheme": "tree-mso", "params": treeMSO, "graph": g, "certificates": certs}, false, "compile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newServer(registry.Default(), 2)
			srv.requestTimeout = 150 * time.Millisecond
			if tc.warm {
				params := registry.Params{Property: tc.body["params"].(map[string]any)["property"].(string)}
				if tc.body["scheme"] == "tw-mso" {
					params.T = 6
				}
				if _, err := srv.cache.GetOrCompile(tc.body["scheme"].(string), params); err != nil {
					t.Fatal(err)
				}
			}
			ts := httptest.NewServer(srv.routes())
			defer ts.Close()
			armPlan(t, "seed=1;"+tc.plan)
			var out errorJSON
			resp := postJSON(t, ts.URL+tc.path, tc.body, &out)
			if resp.StatusCode != 503 {
				t.Fatalf("status %d, want 503 (body %+v)", resp.StatusCode, out)
			}
			if !strings.Contains(out.Error, "deadline exceeded during "+tc.phase) {
				t.Fatalf("envelope %q does not name the stalled %s phase", out.Error, tc.phase)
			}
			if got := engine.CancelledCounter(srv.obs, tc.phase).Value(); got != 1 {
				t.Fatalf("certify_cancelled_total{phase=%q} = %d, want 1", tc.phase, got)
			}
		})
	}
}

// phaseSet names the non-zero phase durations of a job.
func phaseSet(generate, compile, decompose, prove, verify int64) string {
	var names []string
	for _, p := range []struct {
		name string
		ns   int64
	}{{"generate", generate}, {"compile", compile}, {"decompose", decompose}, {"prove", prove}, {"verify", verify}} {
		if p.ns > 0 {
			names = append(names, p.name)
		}
	}
	return strings.Join(names, ",")
}

// phaseSamples counts certify_phase_seconds samples per phase.
func phaseSamples(reg *obs.Registry) string {
	var parts []string
	for _, phase := range []string{"generate", "compile", "decompose", "prove", "verify", "sweep"} {
		if n := engine.PhaseHistogram(reg, phase).Snapshot().Count; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", phase, n))
		}
	}
	return strings.Join(parts, ",")
}

// One tw-mso job on a fresh graph reports the same phases — and lands one
// phase-histogram sample per phase — whether it arrives through /certify,
// through /batch or as a direct Pipeline.Certify call: all three run the
// same runner. /simulate reports its decomposition too.
func TestCertifyPathsReportSamePhases(t *testing.T) {
	fresh := func(seed int64) *graph.Graph {
		g, _ := graphgen.PartialKTree(200, 3, 0.8, rand.New(rand.NewSource(seed)))
		return g
	}
	job := func(g *graph.Graph) map[string]any {
		return map[string]any{"scheme": "tw-mso", "params": map[string]any{"property": "tw-bound", "t": 6}, "graph": wire.GraphToJSON(g)}
	}
	const want, wantSamples = "compile,decompose,prove,verify", "compile=1,decompose=1,prove=1,verify=1"

	certifySrv := newServer(registry.Default(), 2)
	ts := httptest.NewServer(certifySrv.routes())
	defer ts.Close()
	var cr certifyResponse
	if resp := postJSON(t, ts.URL+"/certify", job(fresh(1)), &cr); resp.StatusCode != 200 || !cr.Result.Accepted {
		t.Fatalf("/certify: status %d, %+v", resp.StatusCode, cr)
	}
	if got := phaseSet(0, cr.CompileNS, cr.DecomposeNS, cr.ProveNS, cr.VerifyNS); got != want {
		t.Fatalf("/certify phases %q, want %q", got, want)
	}
	if got := phaseSamples(certifySrv.obs); got != wantSamples {
		t.Fatalf("/certify phase samples %q, want %q", got, wantSamples)
	}

	batchSrv := newServer(registry.Default(), 2)
	ts2 := httptest.NewServer(batchSrv.routes())
	defer ts2.Close()
	var br struct {
		Results []batchJobResult `json:"results"`
	}
	if resp := postJSON(t, ts2.URL+"/batch", map[string]any{"jobs": []any{job(fresh(2))}}, &br); resp.StatusCode != 200 || len(br.Results) != 1 {
		t.Fatalf("/batch: status %d, %+v", resp.StatusCode, br)
	}
	r := br.Results[0]
	if got := phaseSet(int64(r.Generate), int64(r.Compile), int64(r.Decompose), int64(r.Prove), int64(r.Verify)); got != want {
		t.Fatalf("/batch phases %q, want %q", got, want)
	}
	if got := phaseSamples(batchSrv.obs); got != wantSamples {
		t.Fatalf("/batch phase samples %q, want %q", got, wantSamples)
	}

	reg := obs.NewRegistry()
	cache := engine.NewCacheObs(registry.Default(), reg)
	cache.Decomps = engine.NewDecompCacheObs(reg)
	pipe := &engine.Pipeline{Cache: cache}
	res, _ := pipe.Certify(context.Background(), engine.Job{Graph: fresh(3), Scheme: "tw-mso", Params: registry.Params{Property: "tw-bound", T: 6}})
	if res.Err != nil || !res.Accepted {
		t.Fatalf("Pipeline.Certify: %+v", res)
	}
	if got := phaseSet(int64(res.Generate), int64(res.Compile), int64(res.Decompose), int64(res.Prove), int64(res.Verify)); got != want {
		t.Fatalf("Pipeline.Certify phases %q, want %q", got, want)
	}
	if got := phaseSamples(reg); got != wantSamples {
		t.Fatalf("Pipeline.Certify phase samples %q, want %q", got, wantSamples)
	}

	var sr simulateResponse
	if resp := postJSON(t, ts.URL+"/simulate", job(fresh(4)), &sr); resp.StatusCode != 200 || !sr.Result.Accepted {
		t.Fatalf("/simulate: status %d, %+v", resp.StatusCode, sr)
	}
	if sr.DecomposeNS <= 0 || sr.ProveNS <= 0 || sr.VerifyNS <= 0 {
		t.Fatalf("/simulate phases: decompose %d prove %d verify %d, want all non-zero", sr.DecomposeNS, sr.ProveNS, sr.VerifyNS)
	}
}
