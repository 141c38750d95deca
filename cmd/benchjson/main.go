// Command benchjson converts `go test -bench -benchmem` output on stdin
// into machine-readable JSON on stdout, so benchmark runs accumulate as
// data instead of terminal scrollback:
//
//	go test -bench=. -benchmem -run=NONE ./internal/engine ./internal/netsim ./internal/treewidth \
//	    | go run ./cmd/benchjson > BENCH_PR3.json
//
// (`make bench PKGS=... OUT=file.json` runs exactly that.) The output is
// one JSON document:
//
//	{"goos": ..., "goarch": ..., "cpu": ..., "benchmarks": [
//	  {"package": ..., "name": ..., "runs": N, "ns_per_op": ...,
//	   "bytes_per_op": ..., "allocs_per_op": ...}, ...]}
//
// Metric fields beyond ns/op are present only when the bench line carried
// them. Non-benchmark lines are ignored, so the full `go test` output can
// be piped through unmodified.
//
// The second mode is the regression gate:
//
//	benchjson -compare old.json new.json
//
// prints a per-benchmark delta table (ns/op and allocs/op) for every
// benchmark present in both documents, lists added and removed ones, and
// exits non-zero when any shared benchmark's ns/op regressed by more than
// -threshold percent (default 25). With enough shared benchmarks the gate
// first subtracts uniform machine drift — the median new/old ns ratio —
// so snapshots recorded on differently clocked days compare on code, not
// hardware mood (see Compare). `make bench ... OUT=new.json BASE=old.json`
// wires it against a committed per-PR snapshot.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Package     string  `json:"package,omitempty"`
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// Report is the emitted document.
type Report struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	compare := flag.Bool("compare", false, "compare two benchmark JSON files: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 25, "ns/op regression percentage that fails -compare")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			os.Exit(2)
		}
		old, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		cur, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		regressions := Compare(os.Stdout, old, cur, *threshold)
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed by more than %.0f%% ns/op:\n", len(regressions), *threshold)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		return
	}
	rep, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in input; refusing to emit an empty report")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := decodeReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// decodeReport reads one report document and validates it is usable as a
// regression baseline. Empty, truncated and zero-benchmark documents must
// fail loudly: Compare against any of them finds no shared benchmarks and
// would print a clean "0 regressions" no matter how slow the new code is.
func decodeReport(r io.Reader) (*Report, error) {
	dec := json.NewDecoder(r)
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		switch {
		case errors.Is(err, io.EOF):
			return nil, errors.New("empty benchmark report")
		case errors.Is(err, io.ErrUnexpectedEOF):
			return nil, errors.New("truncated benchmark report")
		default:
			return nil, err
		}
	}
	if dec.More() {
		return nil, errors.New("trailing data after benchmark report")
	}
	if len(rep.Benchmarks) == 0 {
		return nil, errors.New("report has no benchmarks; a comparison against it would be vacuous")
	}
	return &rep, nil
}

// benchKey identifies a benchmark across reports: the trailing
// "-<GOMAXPROCS>" suffix is stripped so runs from differently sized
// machines still line up.
func benchKey(b Benchmark) string {
	name := b.Name
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return b.Package + " " + name
}

// driftMinShared is the fewest shared benchmarks from which the
// machine-drift estimate (the median ns/op ratio) is trusted. Below it a
// couple of real regressions could drag the median and normalize
// themselves away, so small comparisons gate on raw deltas.
const driftMinShared = 8

// medianRatio returns the median of ratios (which it sorts in place).
func medianRatio(ratios []float64) float64 {
	sort.Float64s(ratios)
	n := len(ratios)
	if n%2 == 1 {
		return ratios[n/2]
	}
	return (ratios[n/2-1] + ratios[n/2]) / 2
}

// Compare writes the per-benchmark delta table for benchmarks present in
// both reports (plus added/removed listings) to w and returns the keys
// whose ns/op regressed by more than threshold percent.
//
// Snapshots from different PRs are recorded on whatever the shared
// container was clocking at that day, so raw deltas carry a uniform
// machine-speed term that has nothing to do with the code. With enough
// shared benchmarks (driftMinShared) Compare estimates that term as the
// median ns/op ratio — a robust location estimate a handful of genuine
// regressions cannot drag — prints it, and gates each benchmark on its
// drift-normalized delta: a real single-path regression stands out
// against the median, while "everything is +12% because the machine is"
// cancels out. The table shows both the raw and normalized deltas.
func Compare(w io.Writer, old, cur *Report, threshold float64) []string {
	oldBy := map[string]Benchmark{}
	for _, b := range old.Benchmarks {
		oldBy[benchKey(b)] = b
	}
	curBy := map[string]Benchmark{}
	curKeys := make([]string, 0, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		k := benchKey(b)
		if _, dup := curBy[k]; !dup {
			curKeys = append(curKeys, k)
		}
		curBy[k] = b
	}
	sort.Strings(curKeys)
	// First pass: estimate machine drift as the median new/old ns ratio
	// over the shared benchmarks (trusted only when there are enough of
	// them — see driftMinShared).
	var ratios []float64
	for _, k := range curKeys {
		if ob, shared := oldBy[k]; shared && ob.NsPerOp > 0 {
			ratios = append(ratios, curBy[k].NsPerOp/ob.NsPerOp)
		}
	}
	drift := 1.0
	if len(ratios) >= driftMinShared {
		drift = medianRatio(ratios)
		fmt.Fprintf(w, "machine drift: median ns/op ratio over %d shared benchmarks is %+.1f%%; gating on drift-normalized deltas\n",
			len(ratios), (drift-1)*100)
	}
	var regressions, added []string
	fmt.Fprintf(w, "%-64s %14s %14s %9s %9s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta", "norm", "allocs")
	for _, k := range curKeys {
		nb := curBy[k]
		ob, shared := oldBy[k]
		if !shared {
			added = append(added, k)
			continue
		}
		delta, norm := 0.0, 0.0
		if ob.NsPerOp > 0 {
			ratio := nb.NsPerOp / ob.NsPerOp
			delta = (ratio - 1) * 100
			norm = (ratio/drift - 1) * 100
		}
		allocs := "-"
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil {
			allocs = fmt.Sprintf("%+d", *nb.AllocsPerOp-*ob.AllocsPerOp)
		}
		flag := ""
		if norm > threshold {
			flag = "  << REGRESSION"
			regressions = append(regressions, k)
		}
		fmt.Fprintf(w, "%-64s %14.1f %14.1f %+8.1f%% %+8.1f%% %9s%s\n", k, ob.NsPerOp, nb.NsPerOp, delta, norm, allocs, flag)
	}
	for _, k := range added {
		fmt.Fprintf(w, "%-64s %14s %14.1f %9s\n", k, "(new)", curBy[k].NsPerOp, "")
	}
	var removed []string
	for k := range oldBy {
		if _, ok := curBy[k]; !ok {
			removed = append(removed, k)
		}
	}
	sort.Strings(removed)
	for _, k := range removed {
		fmt.Fprintf(w, "%-64s %14s\n", k, "(removed)")
	}
	return regressions
}

// Parse reads `go test -bench` output and collects benchmark lines plus
// the goos/goarch/cpu preamble. The current package (from "pkg:" lines)
// tags subsequent benchmarks.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if ok {
				b.Package = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// parseBenchLine parses one result line, e.g.
//
//	BenchmarkFoo-8   1000  1234 ns/op  56 B/op  7 allocs/op
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Runs: runs}
	seenNs := false
	// Metrics come as (value, unit) pairs after the run count.
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			ns, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Benchmark{}, false
			}
			b.NsPerOp = ns
			seenNs = true
		case "B/op":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Benchmark{}, false
			}
			b.BytesPerOp = &v
		case "allocs/op":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Benchmark{}, false
			}
			b.AllocsPerOp = &v
		}
	}
	return b, seenNs
}
