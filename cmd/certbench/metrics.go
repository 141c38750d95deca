package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one printed metric. BENCHMARK.json declares the same
// names, units and directions (plus the end-to-end bounds); the smoke test
// holds the two lists equal.
type metricDef struct {
	Name, Unit, Better string
}

// e2eMetrics are printed by every workload with -trace 0. Each workload
// gives "op" its own meaning (see README.md): one certify, one verify
// round trip, one 64-job batch, one light request.
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"cert_max_bits", "bits", "lower"},
}

// layerMetrics are printed by every workload with -trace 1. Times are per
// op (the median over traced ops of the layer's summed self time); a layer
// the op does not call is measured by probe calls on the workload's own
// inputs, or in its set-up, as README.md lists.
var layerMetrics = []metricDef{
	{"wire.decode_ms", "ms", "lower"},
	{"wire.decode_alloc_mb", "MB", "lower"},
	{"wire.certs_decode_ms", "ms", "lower"},
	{"graphgen.generate_ms", "ms", "lower"},
	{"engine.compile_ms", "ms", "lower"},
	{"engine.decompose_ms", "ms", "lower"},
	{"engine.compile_hit_ratio", "ratio", "higher"},
	{"engine.decomp_hit_ratio", "ratio", "higher"},
	{"engine.formula_memo_hit_ratio", "ratio", "higher"},
	{"engine.orchestration_share", "ratio", "lower"},
	{"graph.blocks_ms", "ms", "lower"},
	{"graph.block_count", "count", "higher"},
	{"treewidth.eliminate_ms", "ms", "lower"},
	{"treewidth.validate_ms", "ms", "lower"},
	{"treewidth.nice_ms", "ms", "lower"},
	{"treewidth.emso_dp_ms", "ms", "lower"},
	{"treewidth.prove_rest_ms", "ms", "lower"},
	{"treewidth.width", "count", "lower"},
	{"treewidth.bags", "count", "lower"},
	{"cert.prove_ms", "ms", "lower"},
	{"cert.prove_alloc_mb", "MB", "lower"},
	{"cert.prove_allocs", "count", "lower"},
	{"cert.verify_ms", "ms", "lower"},
	{"cert.total_bits", "bits", "lower"},
	{"netsim.round_ms", "ms", "lower"},
	{"netsim.workers", "count", "higher"},
	{"certserver.overhead_share", "ratio", "lower"},
	{"certserver.shed", "count", "lower"},
	{"certserver.late_share", "ratio", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead", "ratio", "lower"},
}

// outcome is what a workload run measured.
type outcome struct {
	attempted, failed int
	// wrong lists wrong verdicts; each also counts as failed.
	wrong []string
	// setup holds each set-up's wall time in seconds.
	setup []float64
	// ops holds the untraced op latencies (ms) op_p50_ms is taken from;
	// tracedOps the traced ones, for the tracing overhead.
	ops, tracedOps []float64
	// work and busy give the closed-loop throughput: work units (graphs,
	// verifications, jobs) completed per second of measured op time.
	work float64
	busy time.Duration
	// throughput, when set, replaces work/busy (the open-loop workload
	// reports its highest rate meeting the latency limit).
	throughput float64
	// peakRSSMB, when set, replaces this process's own peak RSS (the
	// service workload reports the server's).
	peakRSSMB float64
	maxBits   int
	tr        *tracer
	// speed times the reference task the timing metrics are scaled by.
	speed *speedometer
	// layers holds per-layer values the workload computes itself (cache
	// ratios, server-side numbers); the tracer's ledger supplies the rest.
	layers map[string]float64
	// detail is extra structured output for the -o report.
	detail map[string]any
}

func newOutcome(cfg config) *outcome {
	o := &outcome{layers: map[string]float64{}, detail: map[string]any{}, speed: newSpeedometer()}
	if cfg.trace {
		o.tr = newTracer()
	}
	return o
}

// failf counts a failed op and logs why.
func (o *outcome) failf(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "certbench: failed: "+format+"\n", args...)
}

// wrongf counts a wrong verdict: a failed op that also makes the run's
// output incorrect. Only the first few messages are kept.
func (o *outcome) wrongf(format string, args ...any) {
	o.failed++
	if len(o.wrong) < 20 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

// timeSetup runs one set-up and records its wall time.
func (o *outcome) timeSetup(f func() error) error {
	// Each set-up starts from a collected heap, so the previous one's
	// state does not raise this one's time or the run's peak memory.
	runtime.GC()
	t0 := time.Now()
	if err := f(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	o.setup = append(o.setup, time.Since(t0).Seconds())
	return nil
}

// observe records one measured op: traced ops feed only the overhead
// estimate, untraced ones the end-to-end latency.
func (o *outcome) observe(traced bool, d time.Duration, work float64) {
	if traced {
		o.tracedOps = append(o.tracedOps, ms(d))
	} else {
		o.ops = append(o.ops, ms(d))
	}
	o.work += work
	o.busy += d
}

// tracedOp reports whether op i runs traced: in a traced run every other
// op does, so one run measures both the ledger and the tracing overhead.
func (o *outcome) tracedOp(i int) bool { return o.tr != nil && i%2 == 0 }

// bits folds one assignment's largest certificate into the run maximum.
func (o *outcome) bits(b int) {
	if b > o.maxBits {
		o.maxBits = b
	}
}

// report is the full -o output; E2E or Layers is what the last line prints.
type report struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	NumCPU     int                    `json:"num_cpu"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Wrong      []string               `json:"wrong,omitempty"`
	E2E        map[string]metricValue `json:"e2e"`
	Layers     map[string]metricValue `json:"layers,omitempty"`
	Samples    map[string]summary     `json:"samples"`
	Detail     map[string]any         `json:"detail,omitempty"`
}

func (o *outcome) report(cfg config) (*report, error) {
	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Attempted: o.attempted, Failed: o.failed, Wrong: o.wrong,
		E2E:     map[string]metricValue{},
		Samples: map[string]summary{"op_ms": summarize(o.ops, "ms"), "setup_s": summarize(o.setup, "s")},
		Detail:  o.detail,
	}
	if o.attempted < 1 {
		return nil, fmt.Errorf("no op was attempted")
	}
	throughput := o.throughput
	if throughput == 0 && o.busy > 0 {
		throughput = o.work / o.busy.Seconds()
	}
	rss := o.peakRSSMB
	if rss == 0 {
		var err error
		if rss, err = peakRSSMB(os.Getpid()); err != nil {
			return nil, err
		}
	}
	raw := map[string]float64{
		"setup_s":          median(o.setup),
		"op_p50_ms":        median(o.ops),
		"throughput_per_s": throughput,
	}
	scale := o.speed.scale()
	rep.Detail["raw"] = raw
	rep.Detail["raw_samples"] = map[string][]float64{"op_ms": o.ops, "setup_s": o.setup}
	rep.Detail["reference_task_ms"] = summarize(o.speed.took, "ms")
	rep.Detail["speed_scale"] = scale
	values := map[string]float64{
		"setup_s":          raw["setup_s"] * scale,
		"op_p50_ms":        raw["op_p50_ms"] * scale,
		"throughput_per_s": raw["throughput_per_s"] / scale,
		"peak_rss_mb":      rss,
		"cert_max_bits":    float64(o.maxBits),
	}
	for _, m := range e2eMetrics {
		v := values[m.Name]
		if !(v > 0) {
			return nil, fmt.Errorf("metric %s is %v: no op completed", m.Name, v)
		}
		rep.E2E[m.Name] = metricValue{v, m.Unit}
	}
	if o.tr == nil {
		return rep, nil
	}
	rep.Samples["traced_op_ms"] = summarize(o.tracedOps, "ms")
	o.tr.derive("treewidth.eliminate_ms", "engine.decompose_ms", "graph.blocks_ms")
	o.tr.derive("treewidth.prove_rest_ms", "cert.prove_ms", "treewidth.validate_ms", "treewidth.nice_ms", "treewidth.emso_dp_ms")
	if _, ok := o.layers["trace.coverage"]; !ok {
		o.layers["trace.coverage"] = median(o.tr.coverage())
	}
	if _, ok := o.tr.layerValue("engine.orchestration_share"); !ok {
		// A single caller's op has no worker pool: whatever the layer
		// spans do not cover is the orchestration around them.
		o.layers["engine.orchestration_share"] = 1 - o.layers["trace.coverage"]
	}
	if _, ok := o.layers["trace.overhead"]; !ok {
		o.layers["trace.overhead"] = median(o.tracedOps)/median(o.ops) - 1
	}
	rep.Layers = map[string]metricValue{}
	for _, m := range layerMetrics {
		v, ok := o.layers[m.Name]
		if !ok {
			v, ok = o.tr.layerValue(m.Name)
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		if m.Unit == "ms" {
			v *= scale
		}
		rep.Layers[m.Name] = metricValue{v, m.Unit}
	}
	return rep, nil
}

// print writes a human-readable digest.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "certbench: %s attempted=%d failed=%d wrong=%d\n", r.Workload, r.Attempted, r.Failed, len(r.Wrong))
	for _, k := range sortedKeys(r.Samples) {
		s := r.Samples[k]
		line := fmt.Sprintf("  %-14s n=%d p50=%.4g max=%.4g %s", k, s.N, s.P50, s.Max, s.Unit)
		if s.TailP > 0.5 {
			line += fmt.Sprintf(" p%g=%.4g", s.TailP*100, s.Tail)
		}
		fmt.Fprintln(w, line)
	}
	for _, m := range e2eMetrics {
		fmt.Fprintf(w, "  %-32s %12.4f %s\n", m.Name, r.E2E[m.Name].Value, m.Unit)
	}
	for _, m := range layerMetrics {
		if v, ok := r.Layers[m.Name]; ok {
			fmt.Fprintf(w, "  %-32s %12.4f %s\n", m.Name, v.Value, m.Unit)
		}
	}
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/%d/status", pid)
}

// ratio is hits/lookups, 0 when there were no lookups.
func ratio(hits, lookups int64) float64 {
	if lookups <= 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}
