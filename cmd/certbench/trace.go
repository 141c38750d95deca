package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// The tracer records benchmark-side spans around the calls into each
// layer: name, start, end, parent span and the unit (one op, one set-up,
// one auxiliary request) they belong to. Spans stay in memory and are
// written out at exit. It is used from one goroutine only.
//
// A unit's ledger maps metric names to values: span self-times land as
// "<span name>_ms" when the span finishes, and the program-reported
// durations and counts that cannot be spanned from outside (pipeline job
// phases, server response phase fields, allocation counts) are added
// straight to it.
type tracer struct {
	epoch  time.Time
	spans  []span
	ledger map[string]map[string]float64
	kinds  map[string]string
	order  []string
}

type span struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// child sums the durations of the span's finished children. Spans in
	// one unit run sequentially, so children never overlap.
	child int64
}

// Unit kinds, in the order the ledger prefers them: a layer metric is the
// median over op units when the op calls that layer, otherwise over
// auxiliary units, otherwise over set-up units.
const (
	kindOp    = "op"
	kindAux   = "aux"
	kindSetup = "setup"
)

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ledger: map[string]map[string]float64{}, kinds: map[string]string{}}
}

// unit registers a unit of the given kind and returns its id. A nil
// tracer returns "" and every other method is then a no-op, so workload
// code calls the tracer unconditionally.
func (t *tracer) unit(kind string, i int) string {
	if t == nil {
		return ""
	}
	id := fmt.Sprintf("%s-%d", kind, i)
	if _, ok := t.kinds[id]; !ok {
		t.kinds[id] = kind
		t.order = append(t.order, id)
		t.ledger[id] = map[string]float64{}
	}
	return id
}

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(unit string, parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Unit: unit, Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

// finish closes span i, adds its self time (its duration minus its
// children's) to its unit's ledger as "<name>_ms", and returns its
// duration. Op spans carry no layer of their own and add nothing.
func (t *tracer) finish(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	s := &t.spans[i]
	s.End = int64(time.Since(t.epoch))
	dur := s.End - s.Start
	if s.Parent >= 0 {
		t.spans[s.Parent].child += dur
	}
	if s.Name != opSpan {
		t.ledger[s.Unit][s.Name+"_ms"] += float64(dur-s.child) / 1e6
	}
	return time.Duration(dur)
}

// ledgerValue reads one unit's current ledger entry.
func (t *tracer) ledgerValue(unit, metric string) float64 {
	if t == nil {
		return 0
	}
	return t.ledger[unit][metric]
}

// add accumulates a program-reported value into a unit's ledger.
func (t *tracer) add(unit, metric string, v float64) {
	if t == nil {
		return
	}
	t.ledger[unit][metric] += v
}

// addDur accumulates a program-reported duration as "<layer>_ms".
func (t *tracer) addDur(unit, layer string, d time.Duration) {
	t.add(unit, layer+"_ms", ms(d))
}

// allocs brackets a call with allocation counters; the returned func
// records the bytes (MB) and object count allocated in between under
// "<layer>_alloc_mb" and "<layer>_allocs". ReadMemStats stops the world
// briefly, so brackets go only around calls that run for milliseconds.
func (t *tracer) allocs(unit, layer string) func() {
	if t == nil {
		return func() {}
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	return func() {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		t.add(unit, layer+"_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		t.add(unit, layer+"_allocs", float64(after.Mallocs-before.Mallocs))
	}
}

// opSpan is the root span of one measured op; its direct children are the
// top-level layer calls whose durations the coverage ratio sums.
const opSpan = "op"

// coverage returns, per op span, the share of its wall time covered by its
// direct children.
func (t *tracer) coverage() []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == opSpan && s.End > s.Start {
			out = append(out, float64(s.child)/float64(s.End-s.Start))
		}
	}
	return out
}

// layerValue returns the median of metric over the units of the most
// preferred kind that carry it.
func (t *tracer) layerValue(metric string) (float64, bool) {
	for _, kind := range []string{kindOp, kindAux, kindSetup} {
		var xs []float64
		for _, id := range t.order {
			if t.kinds[id] != kind {
				continue
			}
			if v, ok := t.ledger[id][metric]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			return median(xs), true
		}
	}
	return 0, false
}

// derive adds metric = base - Σ parts to every unit that carries base and
// all parts and does not carry metric yet: the self time of work that
// happens inside one call but has no public entry point of its own.
func (t *tracer) derive(metric, base string, parts ...string) {
	for _, id := range t.order {
		l := t.ledger[id]
		if _, done := l[metric]; done {
			continue
		}
		v, ok := l[base]
		for _, p := range parts {
			pv, has := l[p]
			ok = ok && has
			v -= pv
		}
		if ok {
			l[metric] = v
		}
	}
}

// writeSpans writes the spans and unit ledgers as JSON.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	err = enc.Encode(struct {
		Spans  []span                        `json:"spans"`
		Ledger map[string]map[string]float64 `json:"ledger"`
	}{t.spans, t.ledger})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
