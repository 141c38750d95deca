package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/registry"
	"repro/internal/wire"
)

// service-mix: an open loop on a fixed, seeded Poisson schedule against a
// certserver built from this checkout and booted with default flags. Two
// classes share the server, each on its own connection (one connection
// in all when the machine has one CPU):
//
//   - light: small JSON /certify, /verify, /simulate and /batch bodies in
//     the served load mix's proportions, climbing through fixed rate steps;
//   - heavy: 1 request/s of wire-v2 stream /certify on partial 4-trees of
//     4096-16384 vertices, half of them three fixed graphs (decomposition
//     cache hits after the first) and half never seen (misses).
//
// Latency is timed from each request's due time, so a stall shows in
// every request queued behind it. With two connections the per-path
// admission gate (64 slots) can never fill: admission policy needs a
// workload with more connections.
var stepRates = []float64{25, 50, 100, 200}

// satStep marks the records of the capacity phase that follows the rate
// steps: one caller sending light requests back to back on the light
// connection, so throughput_per_s is a continuous measure of how many
// light requests per second the server carries next to the heavy class.
// The rate steps themselves never saturate on a two-core machine.
var satStep = len(stepRates)

const (
	// heavyEvery is the heavy class's arrival interval (1 request/s).
	heavyEvery = time.Second
	// lightP95Limit is the light-class latency limit a step must meet.
	lightP95Limit = 10 * time.Millisecond
	// lateLimit bounds how late the generator may send (p99).
	lateLimit = 10 * time.Millisecond
	// maxFailShare bounds failed plus shed requests per step.
	maxFailShare = 0.01
	heavyPath    = "/certify?scheme=tw-mso&property=tw-bound&t=6"
	streamType   = "application/x-graph-stream"
	jsonType     = "application/json"
)

// body is one prebuilt request.
type body struct {
	path, ctype string
	data        []byte
	// key names a repeated instance: its certificates must keep one size.
	key string
	// fresh marks a never-seen heavy graph; g is kept for probes.
	fresh bool
	g     *graph.Graph
}

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // offset from the schedule start
	step int           // index into stepRates, -1 during warm-up
	body int           // index into the class's bodies
}

// record is one request's outcome.
type record struct {
	arrival
	sent, done time.Duration
	status     int
	err        error
	resp       serverResp
	traced     bool
}

func (r record) latency() time.Duration  { return r.done - r.due }
func (r record) lateness() time.Duration { return r.sent - r.due }
func (r record) ok() bool                { return r.err == nil && r.status == http.StatusOK }

// serverResp is the union of the response fields the benchmark reads.
type serverResp struct {
	Result *struct {
		Accepted  bool `json:"accepted"`
		MaxBits   int  `json:"max_bits"`
		TotalBits int  `json:"total_bits"`
	} `json:"result"`
	Workers     int   `json:"workers"`
	CompileNS   int64 `json:"compile_ns"`
	DecomposeNS int64 `json:"decompose_ns"`
	ProveNS     int64 `json:"prove_ns"`
	VerifyNS    int64 `json:"verify_ns"`
	Stats       *struct {
		Jobs     int `json:"jobs"`
		Accepted int `json:"accepted"`
	} `json:"stats"`
	WallNS  int64 `json:"wall_ns"`
	Results []struct {
		MaxBits int `json:"max_bits"`
	} `json:"results"`
}

func (s serverResp) accepted() bool {
	if s.Stats != nil {
		return s.Stats.Jobs > 0 && s.Stats.Accepted == s.Stats.Jobs
	}
	return s.Result != nil && s.Result.Accepted
}

func (s serverResp) maxBits() int {
	if s.Result != nil {
		return s.Result.MaxBits
	}
	m := 0
	for _, r := range s.Results {
		m = max(m, r.MaxBits)
	}
	return m
}

// phases is the server-reported time the request spent in engine phases
// (the batch wall time for /batch); /verify reports none.
func (s serverResp) phases() time.Duration {
	if s.Stats != nil {
		return time.Duration(s.WallNS)
	}
	return time.Duration(s.CompileNS + s.DecomposeNS + s.ProveNS + s.VerifyNS)
}

// serviceInputs are the generated bodies and the schedule.
type serviceInputs struct {
	light, heavy       []body
	lightArr, heavyArr []arrival
	// warmup, step and sat are the phase lengths: warm-up, each rate
	// step, then the capacity phase.
	warmup, step, sat time.Duration
	// satSeed is where in the light pool the capacity phase starts.
	satSeed int64
}

// satStart is the schedule offset where the capacity phase begins.
func (in *serviceInputs) satStart() time.Duration {
	return in.warmup + in.step*time.Duration(len(stepRates))
}

func runServiceMix(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome(cfg)
	defer o.speed.during()()
	bin, err := buildServer(cfg.root, os.Stderr)
	if err != nil {
		return nil, err
	}
	var in *serviceInputs
	var srv *serverProc
	for r := 0; r < setupReps; r++ {
		unit := o.tr.unit(kindSetup, r)
		err := o.timeSetup(func() (err error) {
			if in, err = serviceSetup(ctx, cfg, o.tr, unit); err != nil {
				return err
			}
			srv, err = startServer(bin)
			return err
		})
		if err != nil {
			return nil, err
		}
		if r < setupReps-1 {
			srv.stop()
		}
	}
	light, heavy, before, after, err := drive(ctx, cfg, in, srv.base)
	o.peakRSSMB = srv.stop()
	if err != nil {
		return nil, err
	}
	if err := o.serviceMetrics(in, light, heavy); err != nil {
		return nil, err
	}
	ch, dh, fh := cacheCount(after, "compile", "hit")-cacheCount(before, "compile", "hit"),
		cacheCount(after, "decomp", "hit")-cacheCount(before, "decomp", "hit"),
		cacheCount(after, "formula", "hit")-cacheCount(before, "formula", "hit")
	lookups := func(cache string, results ...string) int64 {
		n := int64(0)
		for _, r := range results {
			n += cacheCount(after, cache, r) - cacheCount(before, cache, r)
		}
		return n
	}
	o.layers["engine.compile_hit_ratio"] = ratio(ch, lookups("compile", "hit", "miss", "bypass"))
	o.layers["engine.decomp_hit_ratio"] = ratio(dh, lookups("decomp", "hit", "miss"))
	o.layers["engine.formula_memo_hit_ratio"] = ratio(fh, lookups("formula", "hit", "miss"))
	if o.tr != nil {
		o.simulateUnits(in, light)
		if err := o.serviceProbes(ctx, in, heavy); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// serviceSetup generates the bodies and the schedule from the seed.
func serviceSetup(ctx context.Context, cfg config, tr *tracer, unit string) (*serviceInputs, error) {
	rng := rand.New(rand.NewSource(seedFor(cfg.seed, "service", 0)))
	in := &serviceInputs{}
	in.warmup = min(max(cfg.window()/20, 250*time.Millisecond), 2*time.Second)
	in.sat = cfg.window() / 4
	in.step = (cfg.window() - in.warmup - in.sat) / time.Duration(len(stepRates))
	in.satSeed = rng.Int63n(1 << 20)
	sp := tr.begin(unit, -1, "graphgen.generate")
	light, err := lightBodies(ctx, rng)
	tr.finish(sp)
	if err != nil {
		return nil, err
	}
	in.light = light
	// Light arrivals: a Poisson stream per phase at the phase's rate.
	t := time.Duration(0)
	phase := func(rate float64, d time.Duration, step int, n int, out *[]arrival) {
		end := t + d
		for at := t + expGap(rng, rate); at < end; at += expGap(rng, rate) {
			*out = append(*out, arrival{due: at, step: step, body: rng.Intn(n)})
		}
		t = end
	}
	phase(stepRates[0], in.warmup, -1, len(light), &in.lightArr)
	for i, r := range stepRates {
		phase(r, in.step, i, len(light), &in.lightArr)
	}
	// Heavy arrivals: one per second at a seeded offset within the second,
	// ending a second before the capacity phase so it measures the light
	// path alone. A fixed count keeps the server's retained state (one
	// cached decomposition per distinct graph) the same from run to run.
	for at := time.Duration(rng.Int63n(int64(heavyEvery))); at < in.satStart()-time.Second; at += heavyEvery {
		in.heavyArr = append(in.heavyArr, arrival{due: at, step: stepOf(in, at), body: len(in.heavyArr)})
	}
	// Heavy bodies alternate: even arrivals cycle through three fixed
	// graphs (decomposition-cache hits after their first request), odd
	// ones are fresh graphs cycling through four sizes (misses).
	sizes := []int{4096, 8192, 12288, 16384}
	fixed := make([]body, 3)
	for i, n := range []int{sizes[0], sizes[1], sizes[3]} {
		g, data, err := genLarge(tr, unit, n, seedFor(cfg.seed, "service-fixed", i))
		if err != nil {
			return nil, err
		}
		fixed[i] = body{path: heavyPath, ctype: streamType, data: data, key: fmt.Sprintf("heavy/%d", i), g: g}
	}
	for i := range in.heavyArr {
		if i%2 == 0 {
			in.heavy = append(in.heavy, fixed[(i/2)%len(fixed)])
			continue
		}
		g, data, err := genLarge(tr, unit, sizes[(i/2)%len(sizes)], seedFor(cfg.seed, "service-fresh", i))
		if err != nil {
			return nil, err
		}
		in.heavy = append(in.heavy, body{path: heavyPath, ctype: streamType, data: data, fresh: true, g: g})
	}
	return in, nil
}

// stepOf maps a schedule offset to its step: -1 in the warm-up, satStep
// in the capacity phase.
func stepOf(in *serviceInputs, at time.Duration) int {
	if at < in.warmup {
		return -1
	}
	return min(int((at-in.warmup)/in.step), satStep)
}

// expGap draws one Poisson inter-arrival gap at rate per second.
func expGap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// params mirrors the server's params wire shape.
type params struct {
	Property string `json:"property,omitempty"`
	Formula  string `json:"formula,omitempty"`
	T        int    `json:"t,omitempty"`
}

// lightBodies builds the light class in the served mix's proportions
// (certify 4 : verify 2 : simulate 1 : batch 1), instances drawn from the
// seed. Every instance is a yes-instance.
func lightBodies(ctx context.Context, rng *rand.Rand) ([]body, error) {
	var out []body
	add := func(path string, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		out = append(out, body{path: path, ctype: jsonType, data: b, key: fmt.Sprintf("light/%d", len(out))})
		return nil
	}
	gen := func(kind string, n, t int) *wire.GeneratorSpec {
		return &wire.GeneratorSpec{Kind: kind, N: n, T: t, Seed: rng.Int63n(1 << 20)}
	}
	for i := 0; i < 4; i++ {
		for _, job := range []map[string]any{
			{"scheme": "tree-mso", "params": params{Property: "perfect-matching"}, "generator": gen("path", 16+2*rng.Intn(57), 0)},
			{"scheme": "tree-mso", "params": params{Property: "is-star"}, "generator": gen("star", 8+rng.Intn(25), 0)},
			{"scheme": "tw-mso", "params": params{Property: "tw-bound", T: 2}, "generator": gen("partial-k-tree", 48, 2)},
			{"scheme": "universal", "params": params{Property: "connected"}, "generator": gen("random-tree", 20+rng.Intn(21), 0)},
		} {
			if err := add("/certify", job); err != nil {
				return nil, err
			}
		}
	}
	// /verify bodies carry certificates proven here, in-process.
	cache := newCache()
	for i := 0; i < 2; i++ {
		for _, c := range []struct {
			scheme string
			p      params
			g      *graph.Graph
		}{
			{"tree-mso", params{Property: "perfect-matching"}, graphgen.Path(16 + 2*rng.Intn(17))},
			{"tree-mso", params{Property: "is-star"}, graphgen.Star(8 + rng.Intn(25))},
			{"universal", params{Property: "connected"}, graphgen.Star(24 + rng.Intn(25))},
			{"tree-mso", params{Property: "max-degree-<=2"}, graphgen.Path(16 + rng.Intn(49))},
		} {
			s, err := cache.GetOrCompileCtx(ctx, c.scheme, registry.Params{Property: c.p.Property})
			if err != nil {
				return nil, err
			}
			a, err := cert.ProveWithContext(ctx, s, c.g)
			if err != nil {
				return nil, fmt.Errorf("prove verify body: %w", err)
			}
			gj := wire.GraphToJSON(c.g)
			if err := add("/verify", map[string]any{"scheme": c.scheme, "params": c.p, "graph": &gj, "certificates": wire.AssignmentToStrings(a)}); err != nil {
				return nil, err
			}
		}
	}
	for _, job := range []map[string]any{
		{"scheme": "tree-mso", "params": params{Property: "perfect-matching"}, "generator": gen("path", 32, 0), "workers": 2},
		{"scheme": "universal", "params": params{Property: "connected"}, "generator": gen("star", 32, 0), "workers": 2},
		{"scheme": "tree-mso", "params": params{Property: "max-degree-<=2"}, "generator": gen("path", 16+rng.Intn(49), 0), "workers": 2},
		{"scheme": "universal", "params": params{Property: "is-tree"}, "generator": gen("random-tree", 16+rng.Intn(17), 0), "workers": 2},
	} {
		if err := add("/simulate", job); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 4; i++ {
		if err := add("/batch", map[string]any{"workers": 2, "jobs": []map[string]any{
			{"scheme": "tree-mso", "params": params{Property: "perfect-matching"}, "generator": gen("path", 16, 0)},
			{"scheme": "tree-mso", "params": params{Property: "perfect-matching"}, "generator": gen("path", 16+2*rng.Intn(25), 0)},
			{"scheme": "tw-mso", "params": params{Property: "tw-bound", T: 2}, "generator": gen("partial-k-tree", 24, 2)},
			{"scheme": "universal", "params": params{Property: "connected"}, "generator": gen("random-tree", 24, 0)},
		}}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// drive runs the schedule: one goroutine per class, each on its own
// connection, each sending its arrivals at their due times and recording
// the outcome. It scrapes /metrics before and after.
func drive(ctx context.Context, cfg config, in *serviceInputs, base string) (light, heavy []record, before, after map[string]float64, err error) {
	lightC, heavyC := newClient(), newClient()
	if runtime.NumCPU() == 1 {
		heavyC = lightC
	}
	defer lightC.CloseIdleConnections()
	defer heavyC.CloseIdleConnections()
	if before, err = scrape(ctx, lightC, base); err != nil {
		return nil, nil, nil, nil, err
	}
	start := time.Now()
	one := func(c *http.Client, b body, a arrival, traced bool) record {
		r := record{arrival: a, sent: time.Since(start), traced: traced}
		var data []byte
		r.status, data, r.err = post(ctx, c, base+b.path, b.ctype, b.data)
		r.done = time.Since(start)
		if r.err == nil && r.status == http.StatusOK {
			if jerr := json.Unmarshal(data, &r.resp); jerr != nil {
				r.err = fmt.Errorf("response: %w", jerr)
			}
		}
		return r
	}
	send := func(c *http.Client, bodies []body, arr []arrival, out *[]record) {
		for i, a := range arr {
			time.Sleep(time.Until(start.Add(a.due)))
			// The service is traced from outside the window only (response
			// fields, probes afterwards); marking every other request keeps
			// trace.overhead an A/A comparison that should read as noise.
			traced := cfg.trace && i%2 == 0
			*out = append(*out, one(c, bodies[a.body], a, traced))
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		send(lightC, in.light, in.lightArr, &light)
		// The capacity phase cycles through the light bodies in order: the
		// pool holds the mix's exact proportions, so every run carries the
		// same mix whatever its length.
		time.Sleep(time.Until(start.Add(in.satStart())))
		for i, end := in.satSeed, in.satStart()+in.sat; time.Since(start) < end; i++ {
			a := arrival{due: time.Since(start), step: satStep, body: int(i % int64(len(in.light)))}
			light = append(light, one(lightC, in.light[a.body], a, false))
		}
	}()
	go func() { defer wg.Done(); send(heavyC, in.heavy, in.heavyArr, &heavy) }()
	wg.Wait()
	if after, err = scrape(ctx, lightC, base); err != nil {
		return nil, nil, nil, nil, err
	}
	return light, heavy, before, after, nil
}

// stepStats is one rate step's light-class digest.
type stepStats struct {
	Rate      float64 `json:"rate_rps"`
	Sent      int     `json:"sent"`
	Failed    int     `json:"failed"`
	Shed      int     `json:"shed"`
	Latency   summary `json:"latency_ms"`
	LateP99   float64 `json:"generator_late_p99_ms"`
	FirstP50  float64 `json:"first_third_p50_ms"`
	LastP50   float64 `json:"last_third_p50_ms"`
	P95       float64 `json:"p95_ms"`
	MeetsSLO  bool    `json:"meets_slo"`
	HeavySent int     `json:"heavy_sent"`
}

// serviceMetrics checks every response and folds the records into the
// end-to-end metrics and the server-side layer values.
func (o *outcome) serviceMetrics(in *serviceInputs, light, heavy []record) error {
	sizes := map[string]int{}
	check := func(class string, r record, b body) {
		if r.step < 0 {
			return
		}
		o.attempted++
		switch {
		case r.err != nil:
			o.failf("%s %s: %v", class, b.path, r.err)
			return
		case r.status != http.StatusOK:
			o.failed++ // shed or server error: counted, not a wrong verdict
			return
		case !r.resp.accepted():
			o.wrongf("%s %s: yes-instance not accepted", class, b.path)
			return
		}
		mb := r.resp.maxBits()
		if prev, seen := sizes[b.key]; b.key != "" && seen && prev != mb {
			o.wrongf("%s %s: certificates of %d max bits, earlier %d", class, b.key, mb, prev)
		}
		if b.key != "" {
			sizes[b.key] = mb
		}
	}
	for _, r := range light {
		check("light", r, in.light[r.body])
	}
	var heavyAll, heavyFixed, heavyFresh, coverage []float64
	for _, r := range heavy {
		b := in.heavy[r.body]
		check("heavy", r, b)
		if r.step < 0 || !r.ok() || !r.resp.accepted() {
			continue
		}
		o.bits(r.resp.maxBits())
		lat := ms(r.latency())
		heavyAll = append(heavyAll, lat)
		if b.fresh {
			heavyFresh = append(heavyFresh, lat)
		} else {
			heavyFixed = append(heavyFixed, lat)
		}
		coverage = append(coverage, float64(r.resp.phases())/float64(r.done-r.sent))
	}
	o.layers["trace.coverage"] = median(coverage)

	var steps []stepStats
	var reportLat, tracedLat, overhead []float64
	shed, late, arrivals := 0, 0, 0
	maxOK := 0.0
	for _, r := range heavy {
		if r.step >= 0 {
			arrivals++
			if r.lateness() > lateLimit {
				late++
			}
		}
	}
	for i, rate := range stepRates {
		var lat, lateMS []float64
		st := stepStats{Rate: rate}
		for _, r := range light {
			if r.step != i {
				continue
			}
			st.Sent++
			arrivals++
			if r.lateness() > lateLimit {
				late++
			}
			lateMS = append(lateMS, ms(r.lateness()))
			if r.status == http.StatusTooManyRequests {
				st.Shed++
			}
			if !r.ok() || !r.resp.accepted() {
				st.Failed++
				continue
			}
			lat = append(lat, ms(r.latency()))
			if ph := r.resp.phases(); ph > 0 {
				overhead = append(overhead, 1-float64(ph)/float64(r.done-r.sent))
			}
			// op_p50_ms pools the four steps: light latency is flat across
			// them on two cores, and 14 s of samples ride out the
			// machine's speed swings better than one 3.5 s step.
			if r.traced {
				tracedLat = append(tracedLat, ms(r.latency()))
			} else {
				reportLat = append(reportLat, ms(r.latency()))
			}
		}
		for _, r := range heavy {
			if r.step == i {
				st.HeavySent++
			}
		}
		shed += st.Shed
		st.Latency = summarize(lat, "ms")
		st.LateP99 = quantile(lateMS, 0.99)
		third := len(lat) / 3
		if third > 0 {
			st.FirstP50, st.LastP50 = median(lat[:third]), median(lat[len(lat)-third:])
		}
		st.P95 = quantile(lat, 0.95)
		st.MeetsSLO = len(lat) > 0 &&
			st.P95 <= ms(lightP95Limit) &&
			float64(st.Failed) <= maxFailShare*float64(st.Sent) &&
			st.LateP99 <= ms(lateLimit) &&
			st.LastP50 <= 2*st.FirstP50
		if st.MeetsSLO {
			maxOK = rate
		}
		steps = append(steps, st)
	}
	// Capacity: light requests completed per second by the back-to-back
	// caller of the last phase.
	var first, last time.Duration
	done := 0
	for _, r := range light {
		if r.step != satStep || !r.ok() || !r.resp.accepted() {
			continue
		}
		if done == 0 {
			first = r.sent
		}
		last = r.done
		done++
	}
	if done > 0 && last > first {
		o.throughput = float64(done) / (last - first).Seconds()
	}
	o.ops, o.tracedOps = reportLat, tracedLat
	o.layers["certserver.overhead_share"] = median(overhead)
	o.layers["certserver.shed"] = float64(shed)
	o.layers["certserver.late_share"] = float64(late) / float64(max(arrivals, 1))
	if len(tracedLat) > 0 {
		o.layers["trace.overhead"] = median(tracedLat)/median(reportLat) - 1
	}
	o.detail["steps"] = steps
	o.detail["light_p95_limit_ms"] = ms(lightP95Limit)
	o.detail["max_ok_rate_rps"] = maxOK
	o.detail["capacity_requests"] = done
	o.detail["heavy_ms"] = map[string]summary{
		"all":   summarize(heavyAll, "ms"),
		"fixed": summarize(heavyFixed, "ms"),
		"fresh": summarize(heavyFresh, "ms"),
	}
	o.detail["heavy_phases_ms"] = heavyPhases(in, heavy)
	o.detail["step_seconds"] = in.step.Seconds()
	return nil
}

// heavyPhases is the server-reported phase split of heavy requests, by
// decomposition-cache outcome (fixed graphs hit after their first
// request, fresh graphs miss).
func heavyPhases(in *serviceInputs, heavy []record) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, class := range []string{"fixed", "fresh"} {
		var dec, prove, verify []float64
		for _, r := range heavy {
			if !r.ok() || r.step < 0 || in.heavy[r.body].fresh != (class == "fresh") {
				continue
			}
			dec = append(dec, float64(r.resp.DecomposeNS)/1e6)
			prove = append(prove, float64(r.resp.ProveNS)/1e6)
			verify = append(verify, float64(r.resp.VerifyNS)/1e6)
		}
		out[class] = map[string]float64{"decompose_p50": median(dec), "prove_p50": median(prove), "verify_p50": median(verify), "n": float64(len(dec))}
	}
	return out
}

// serviceProbes builds the ledger of a traced run after the schedule:
// one op unit per fresh heavy request, holding the phase times the server
// reported plus in-process probes on the same graph for the layers the
// server does not report (stream decode, block split, validation, nice
// conversion, EMSO DP, prove allocations, certificate decode), and one
// auxiliary unit per /simulate request for the netsim round.
func (o *outcome) serviceProbes(ctx context.Context, in *serviceInputs, heavy []record) error {
	tr := o.tr
	cache := newCache()
	s, err := cache.GetOrCompileCtx(ctx, "tw-mso", largeParams)
	if err != nil {
		return err
	}
	tws, err := twScheme(s)
	if err != nil {
		return err
	}
	for i, r := range heavy {
		b := in.heavy[r.body]
		if !b.fresh || !r.ok() || r.step < 0 {
			continue
		}
		unit := tr.unit(kindOp, i)
		tr.addDur(unit, "engine.compile", time.Duration(r.resp.CompileNS))
		tr.addDur(unit, "engine.decompose", time.Duration(r.resp.DecomposeNS))
		tr.addDur(unit, "cert.prove", time.Duration(r.resp.ProveNS))
		tr.addDur(unit, "cert.verify", time.Duration(r.resp.VerifyNS))
		if r.resp.Result != nil {
			tr.add(unit, "cert.total_bits", float64(r.resp.Result.TotalBits))
		}
		if err := probeDecode(tr, unit, b.data); err != nil {
			return err
		}
		d, err := cache.Decomps.GetCtx(ctx, b.g)
		if err != nil {
			return err
		}
		if err := probeTreewidth(ctx, tr, unit, b.g, d, tws.Prop.Phi); err != nil {
			return err
		}
		recordShape(tr, unit, d)
		done := tr.allocs(unit, "cert.prove")
		a, err := cert.ProveWithContext(ctx, s, b.g)
		done()
		if err != nil {
			return err
		}
		if err := probeCerts(tr, unit, a); err != nil {
			return err
		}
		cache.Decomps.Purge()
	}
	return nil
}

// simulateUnits records the netsim rounds the server reported for the
// light /simulate requests.
func (o *outcome) simulateUnits(in *serviceInputs, light []record) {
	for i, r := range light {
		if r.step < 0 || !r.ok() || in.light[r.body].path != "/simulate" {
			continue
		}
		unit := o.tr.unit(kindAux, i)
		o.tr.addDur(unit, "netsim.round", time.Duration(r.resp.VerifyNS))
		o.tr.add(unit, "netsim.workers", float64(r.resp.Workers))
	}
}
