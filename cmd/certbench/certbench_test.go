package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetricTablesMatchBenchmarkFile holds the printed metric names, units
// and directions equal to the ones BENCHMARK.json declares.
func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !equalDefs(e2e, e2eMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, certbench prints %v", e2e, e2eMetrics)
	}
	if !equalDefs(layers, layerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json = %v, certbench prints %v", layers, layerMetrics)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsSmoke runs every workload at toy scale, untraced and
// traced, and checks the printed result: correct, nothing failed, exactly
// the declared metrics, and a trace whose layer spans cover the ops.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			seconds := "1"
			if w.name == "service-mix" {
				if testing.Short() {
					t.Skip("service-mix builds and boots certserver")
				}
				// Long enough for a heavy request after the warm-up.
				seconds = "4"
			}
			for _, trace := range []string{"0", "1"} {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", w.name, "-seed", "7", "-seconds", seconds, "-n", "2000", "-trace", trace}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("trace=%s: exit %d\n%s", trace, code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("trace=%s: last line: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%s: correct=%v attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := e2eMetrics
				if trace == "1" {
					want = layerMetrics
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%s: printed %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("trace=%s: metric %s missing or unit %q != %q", trace, m.Name, v.Unit, m.Unit)
					}
				}
				if trace == "1" {
					if c := res.Metrics["trace.coverage"].Value; c < 0.9 {
						t.Errorf("trace.coverage = %.3f, want >= 0.9", c)
					}
				}
			}
		})
	}
}

// TestQuartileSpreadMatchesPython pins quartileSpread to Python's
// statistics.quantiles(values, n=4) on a known input.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if p, v, ok := tail(make([]float64, 100)); !ok || p != 0.90 || v != 0 {
		t.Errorf("tail of 100 samples = p%v %v %v, want p90", p, v, ok)
	}
	if _, _, ok := tail(make([]float64, 15)); ok {
		t.Error("15 samples support no percentile with 10 samples beyond it")
	}
}
