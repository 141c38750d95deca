package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cert"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/treewidth"
	"repro/internal/wire"
)

// The large workloads certify partial 4-trees (keep 0.85, the
// certify-large class of the served load mix) under tw-mso tw-bound with
// t=6: stream-loaded graphs carry no witness, the heuristics land at width
// 5 on these graphs, and 6 leaves margin — exactly the served /certify
// stream request.
const (
	largeK    = 4
	largeKeep = 0.85
	largeT    = 6
)

var largeParams = registry.Params{Property: "tw-bound", T: largeT}

// newCache builds the engine the way certserver does: one compile cache
// with a shared decomposition cache attached.
func newCache() *engine.Cache {
	c := engine.NewCache(registry.Default())
	c.Decomps = engine.NewDecompCache()
	return c
}

// seedFor derives the seed of input i of a stream of inputs from the run
// seed, so inputs are distinct across ops and across run seeds.
func seedFor(seed int64, stream string, i int) int64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(fmt.Sprintf("%d/%s/%d", seed, stream, i)) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return int64(h >> 1)
}

// genLarge generates one large partial 4-tree and its wire-v2 stream
// encoding, under a graphgen.generate span.
func genLarge(tr *tracer, unit string, n int, seed int64) (*graph.Graph, []byte, error) {
	sp := tr.begin(unit, -1, "graphgen.generate")
	g, _ := graphgen.PartialKTree(n, largeK, largeKeep, rand.New(rand.NewSource(seed)))
	tr.finish(sp)
	var buf bytes.Buffer
	if err := wire.EncodeGraphStream(&buf, g); err != nil {
		return nil, nil, fmt.Errorf("encode stream: %w", err)
	}
	return g, buf.Bytes(), nil
}

// closedLoop runs op back to back from one caller until the window has
// elapsed and at least minOps ops ran.
func closedLoop(cfg config, minOps int, op func(i int) error) error {
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < cfg.window(); i++ {
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// cacheSnap is a point-in-time copy of the engine's cache counters.
type cacheSnap struct {
	compile engine.Stats
	decomp  engine.DecompStats
	formula engine.FormulaStats
}

func snapCache(c *engine.Cache) cacheSnap {
	return cacheSnap{c.Stats(), c.Decomps.Stats(), c.FormulaStats()}
}

// cacheRatios records the caches' hit ratios over the measured window.
func (o *outcome) cacheRatios(before, after cacheSnap) {
	ch := after.compile.Hits - before.compile.Hits
	cl := ch + after.compile.Misses - before.compile.Misses + after.compile.Bypasses - before.compile.Bypasses
	dh := after.decomp.Hits - before.decomp.Hits
	dl := dh + after.decomp.Misses - before.decomp.Misses
	fh := after.formula.Hits - before.formula.Hits
	fl := fh + after.formula.Misses - before.formula.Misses
	o.layers["engine.compile_hit_ratio"] = ratio(ch, cl)
	o.layers["engine.decomp_hit_ratio"] = ratio(dh, dl)
	o.layers["engine.formula_memo_hit_ratio"] = ratio(fh, fl)
}

// inProcess fills the per-layer values that only the served workload can
// measure: an in-process workload has no HTTP layer, sheds nothing and
// runs no arrival schedule.
func (o *outcome) inProcess() {
	o.layers["certserver.overhead_share"] = 0
	o.layers["certserver.shed"] = 0
	o.layers["certserver.late_share"] = 0
}

// probeTreewidth measures, outside any op span, the treewidth pieces that
// run inside one decompose or prove call and have no span of their own
// there: the biconnected-block split, validation, the nice conversion and
// the EMSO dynamic programme, on the op's own graph and decomposition.
func probeTreewidth(ctx context.Context, tr *tracer, unit string, g *graph.Graph, d *treewidth.Decomposition, phi *treewidth.EMSO) error {
	sp := tr.begin(unit, -1, "graph.blocks")
	blocks := g.BiconnectedComponents()
	tr.finish(sp)
	tr.add(unit, "graph.block_count", float64(len(blocks)))

	sp = tr.begin(unit, -1, "treewidth.validate")
	err := treewidth.Validate(g, d)
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("probe validate: %w", err)
	}
	sp = tr.begin(unit, -1, "treewidth.nice")
	nice, err := treewidth.MakeNiceCtx(ctx, d, 0)
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("probe nice: %w", err)
	}
	sp = tr.begin(unit, -1, "treewidth.emso_dp")
	_, ok, err := treewidth.SolveEMSOCtx(ctx, g, nice, phi)
	tr.finish(sp)
	if err != nil || !ok {
		return fmt.Errorf("probe emso: ok=%v err=%v", ok, err)
	}
	return nil
}

// recordShape records a decomposition's width and bag count on a unit.
func recordShape(tr *tracer, unit string, d *treewidth.Decomposition) {
	tr.add(unit, "treewidth.width", float64(d.Width()))
	tr.add(unit, "treewidth.bags", float64(d.NumBags()))
}

// probeCerts measures the /verify certificate decode on an assignment the
// op produced: render to the JSON bit strings outside the span, parse
// inside it.
func probeCerts(tr *tracer, unit string, a cert.Assignment) error {
	strs := wire.AssignmentToStrings(a)
	sp := tr.begin(unit, -1, "wire.certs_decode")
	_, err := wire.AssignmentFromStrings(strs)
	tr.finish(sp)
	return err
}

// probeNetsim runs one sharded verification round on an honest assignment
// and requires every vertex to accept.
func probeNetsim(ctx context.Context, tr *tracer, unit string, sim *netsim.Engine, g *graph.Graph, s cert.Scheme, a cert.Assignment) error {
	sp := tr.begin(unit, -1, "netsim.round")
	rep, err := sim.Run(ctx, g, s, a)
	tr.finish(sp)
	if err != nil {
		return fmt.Errorf("probe netsim: %w", err)
	}
	if !rep.Accepted {
		return fmt.Errorf("probe netsim: honest assignment rejected by %d vertices", len(rep.Rejecters))
	}
	tr.add(unit, "netsim.workers", float64(rep.Workers))
	return nil
}

// probeDecode measures the wire-v2 stream decode of one encoded graph.
func probeDecode(tr *tracer, unit string, body []byte) error {
	done := tr.allocs(unit, "wire.decode")
	sp := tr.begin(unit, -1, "wire.decode")
	_, err := wire.DecodeGraphStream(bytes.NewReader(body), wire.StreamLimits{})
	tr.finish(sp)
	done()
	return err
}

// twScheme unwraps a compiled tw-mso scheme.
func twScheme(s cert.Scheme) (*treewidth.MSOScheme, error) {
	tws, ok := s.(*treewidth.MSOScheme)
	if !ok {
		return nil, fmt.Errorf("scheme %s is not tw-mso", s.Name())
	}
	return tws, nil
}
