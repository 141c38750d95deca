package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkFile is the subset of BENCHMARK.json calibration reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// calibrate runs the workload k times, each in a fresh process with the
// next seed, plus once more on the first seed, and prints each
// end-to-end metric's spread: the quartile distance over the median (the
// measure the declared bounds are checked against) and (max-min)/median.
// It fails when a quartile spread other than set-up time's exceeds the
// metric's bound, or when the repeated seed certifies its graphs with a
// different cert_max_bits.
func calibrate(cfg config, k int, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile(cfg.root)
	if err != nil {
		fmt.Fprintf(stderr, "certbench: -repeat: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "certbench: -repeat: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	var again float64
	for i := 0; i <= k; i++ {
		seed := cfg.seed + int64(i)
		if i == k {
			seed = cfg.seed
		}
		res, err := runChild(exe, cfg, seed, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "certbench: -repeat: seed %d: %v\n", seed, err)
			return 1
		}
		if !res.Correct || res.Failed > 0 {
			fmt.Fprintf(stderr, "certbench: -repeat: seed %d: correct=%v failed=%d\n", seed, res.Correct, res.Failed)
			return 1
		}
		if i == k {
			again = res.Metrics["cert_max_bits"].Value
			break
		}
		for name, v := range res.Metrics {
			values[name] = append(values[name], v.Value)
		}
	}
	ok := true
	if first := values["cert_max_bits"][0]; again != first {
		fmt.Fprintf(stderr, "certbench: -repeat: seed %d gave cert_max_bits %v, then %v\n", cfg.seed, first, again)
		ok = false
	}
	type row struct {
		Values      []float64 `json:"values"`
		Median      float64   `json:"median"`
		IQRShare    float64   `json:"iqr_share"`
		RangeShare  float64   `json:"range_share"`
		Bound       float64   `json:"bound"`
		WithinBound bool      `json:"within_bound"`
	}
	rows := map[string]row{}
	fmt.Fprintf(stderr, "%-20s %12s %10s %10s %8s\n", "metric", "median", "iqr/med", "range/med", "bound")
	for _, m := range bf.EndToEnd {
		xs := values[m.Name]
		if len(xs) == 0 {
			fmt.Fprintf(stderr, "certbench: -repeat: %s was not printed\n", m.Name)
			ok = false
			continue
		}
		r := row{Values: xs, Median: classicMedian(sortedCopy(xs)), IQRShare: quartileSpread(xs), RangeShare: rangeSpread(xs), Bound: m.Bound}
		r.WithinBound = r.IQRShare <= m.Bound
		// Set-up time is held to its bound through the median only: three
		// cold starts per run are too few to make its spread small.
		ok = ok && (r.WithinBound || m.Name == "setup_s")
		rows[m.Name] = r
		fmt.Fprintf(stderr, "%-20s %12.4f %10.4f %10.4f %8.3f %s\n", m.Name, r.Median, r.IQRShare, r.RangeShare, m.Bound, m.Unit)
	}
	line, _ := json.Marshal(struct {
		Workload string         `json:"workload"`
		Runs     int            `json:"runs"`
		OK       bool           `json:"ok"`
		Metrics  map[string]row `json:"metrics"`
	}{cfg.workload, k, ok, rows})
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one measured run in a fresh process and parses its last
// stdout line.
func runChild(exe string, cfg config, seed int64, stderr io.Writer) (*result, error) {
	cmd := exec.Command(exe,
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-n", strconv.Itoa(cfg.n),
		"-trace", "0")
	cmd.Dir = cfg.root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("parse result line %q: %w", last, err)
	}
	return &res, nil
}
