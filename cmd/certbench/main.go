// Command certbench is the repository benchmark: four workloads that drive
// the certification layers (wire, graph, graphgen, engine, treewidth,
// cert, netsim) in-process and the certserver binary over HTTP, check
// every verdict, and print end-to-end metrics, or with -trace 1 a
// per-layer ledger, as one JSON object on the last line of stdout:
//
//	go run . -workload certify-large -seed 1 -seconds 20 -trace 0
//
// The benchmark generates every input from -seed; the program under test
// only ever sees generated graphs, request bodies and certificates.
// -repeat k runs k seeds in fresh processes and prints each end-to-end
// metric's spread against the bound BENCHMARK.json declares. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// n is the vertex count of the large graphs (certify-large,
	// verify-large); the smoke test shrinks it.
	n int
	// root is the repository root: the service workload builds
	// cmd/certserver from it.
	root string
}

// window is the measured duration of the run.
func (c config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// largeN is the default vertex count of the large workloads.
const largeN = 100_000

// setupReps is how many times each run sets up, so setup_s is a median
// rather than one sample.
const setupReps = 3

// workload is one named input set with its runner.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*outcome, error)
}

var workloads = []workload{
	{"certify-large", runCertifyLarge},
	{"verify-large", runVerifyLarge},
	{"batch-small", runBatchSmall},
	{"service-mix", runServiceMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the last line of stdout.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("certbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: certify-large, verify-large, batch-small or service-mix")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 20, "measured seconds per run (set-up excluded)")
		trace   = fs.Int("trace", 0, "1: trace the run and print the per-layer ledger instead of the end-to-end metrics")
		spans   = fs.String("spans", "", "with -trace 1, write the spans and unit ledgers to this JSON file")
		out     = fs.String("o", "", "write the full report (all metrics, sample counts, percentiles) to this JSON file")
		n       = fs.Int("n", largeN, "vertex count of the large workloads' graphs")
		repeat  = fs.Int("repeat", 0, "calibrate: run this many seeds in fresh processes and print each metric's spread")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "certbench: unknown workload %q (known: %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || *n < 64 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "certbench: need -seconds > 0, -n >= 64 and -trace 0 or 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "certbench: %v\n", err)
		return 1
	}
	// Before Go 1.25 GOMAXPROCS ignores container CPU quotas; pin it to
	// the CPU count explicitly and say so, so runs on one box compare.
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(stderr, "certbench: workload=%s seed=%d seconds=%g trace=%d NumCPU=%d GOMAXPROCS=%d\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	cfg := config{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, n: *n, root: root}
	if *repeat > 0 {
		return calibrate(cfg, *repeat, stdout, stderr)
	}

	o, err := w.run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "certbench: %s: %v\n", w.name, err)
		return 1
	}
	rep, err := o.report(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "certbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, msg := range o.wrong {
		fmt.Fprintf(stderr, "certbench: WRONG: %s\n", msg)
	}
	rep.print(stderr)
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintf(stderr, "certbench: -o: %v\n", err)
			return 1
		}
	}
	if *spans != "" && o.tr != nil {
		if err := o.tr.writeSpans(*spans); err != nil {
			fmt.Fprintf(stderr, "certbench: -spans: %v\n", err)
			return 1
		}
	}
	printed := rep.E2E
	if cfg.trace {
		printed = rep.Layers
	}
	line, err := json.Marshal(result{Correct: len(o.wrong) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: printed})
	if err != nil {
		fmt.Fprintf(stderr, "certbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(o.wrong) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// findRoot walks up from the working directory to the repository root:
// the directory holding the main module and cmd/certserver.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "go.mod")) && isFile(filepath.Join(dir, "cmd", "certserver", "main.go")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root (go.mod next to cmd/certserver) not found above the working directory")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.Mode().IsRegular()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
