package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cert"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// certify-large: a closed loop, one caller, over never-seen partial
// 4-trees. Each op is the served /certify stream path minus HTTP: decode
// the wire-v2 body, compile through the cache, prewarm the decomposition
// cache, prove, run the sequential referee. Every graph is fresh, so the
// decomposition cache always misses; decompose and prove do nearly all
// the work.
func runCertifyLarge(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome(cfg)
	defer o.speed.during()()
	o.inProcess()
	var cache *engine.Cache
	var body []byte
	for r := 0; r < setupReps; r++ {
		unit := o.tr.unit(kindSetup, r)
		// A cold engine: registry lookup, first compile (a miss), and the
		// first op's input, generated and encoded.
		err := o.timeSetup(func() error {
			cache = newCache()
			sp := o.tr.begin(unit, -1, "engine.compile")
			_, err := cache.GetOrCompileCtx(ctx, "tw-mso", largeParams)
			o.tr.finish(sp)
			if err != nil {
				return fmt.Errorf("compile: %w", err)
			}
			_, body, err = genLarge(o.tr, unit, cfg.n, seedFor(cfg.seed, "certify", 0))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	sim := &netsim.Engine{}
	before := snapCache(cache)
	err := closedLoop(cfg, 3, func(i int) error {
		traced := o.tracedOp(i)
		tr := o.tr
		if !traced {
			tr = nil
		}
		unit := tr.unit(kindOp, i)
		if i > 0 {
			var err error
			if _, body, err = genLarge(tr, unit, cfg.n, seedFor(cfg.seed, "certify", i)); err != nil {
				return err
			}
		}
		// Each op starts from a collected heap, so its time and peak memory
		// do not depend on the garbage the previous op left behind.
		runtime.GC()
		o.attempted++
		d, err := certifyOp(ctx, tr, unit, cache, sim, body, o)
		if err != nil {
			o.failf("certify op %d: %v", i, err)
		} else {
			o.observe(traced, d, 1)
		}
		// Drop the op's decomposition (outside the timing): the next graph
		// is fresh anyway, and holding every decomposition would make peak
		// memory grow with the run length.
		cache.Decomps.Purge()
		return nil
	})
	o.cacheRatios(before, snapCache(cache))
	o.detail["n"] = cfg.n
	return o, err
}

// certifyOp runs one certify and, when traced, the probes that split the
// layers it cannot span from outside. Wrong verdicts are recorded on o;
// the returned error is an operational failure.
func certifyOp(ctx context.Context, tr *tracer, unit string, cache *engine.Cache, sim *netsim.Engine, body []byte, o *outcome) (time.Duration, error) {
	root := tr.begin(unit, -1, opSpan)
	t0 := time.Now()

	done := tr.allocs(unit, "wire.decode")
	sp := tr.begin(unit, root, "wire.decode")
	g, err := wire.DecodeGraphStream(bytes.NewReader(body), wire.StreamLimits{})
	tr.finish(sp)
	done()
	if err != nil {
		return 0, fmt.Errorf("decode: %w", err)
	}
	sp = tr.begin(unit, root, "engine.compile")
	s, err := cache.GetOrCompileCtx(ctx, "tw-mso", largeParams)
	tr.finish(sp)
	if err != nil {
		return 0, fmt.Errorf("compile: %w", err)
	}
	sp = tr.begin(unit, root, "engine.decompose")
	cache.PrewarmDecomposition(ctx, s, g)
	tr.finish(sp)
	done = tr.allocs(unit, "cert.prove")
	sp = tr.begin(unit, root, "cert.prove")
	a, err := cert.ProveWithContext(ctx, s, g)
	tr.finish(sp)
	done()
	if err != nil {
		return 0, fmt.Errorf("prove: %w", err)
	}
	sp = tr.begin(unit, root, "cert.verify")
	res, err := cert.RunSequentialCtx(ctx, g, s, a)
	tr.finish(sp)
	if err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	d := time.Since(t0)
	tr.finish(root)

	if !res.Accepted {
		o.wrongf("certify: honest proof rejected by %d of %d vertices", len(res.Rejecters), g.N())
		return d, nil
	}
	o.bits(a.MaxBits())
	if tr == nil {
		return d, nil
	}
	tr.add(unit, "cert.total_bits", float64(a.TotalBits()))
	tws, err := twScheme(s)
	if err != nil {
		return d, err
	}
	// The decomposition the prove used, read back without counting a
	// cache lookup.
	dec, err := cache.Decomps.Provider()(g)
	if err != nil {
		return d, fmt.Errorf("probe decomposition: %w", err)
	}
	if err := probeTreewidth(ctx, tr, unit, g, dec, tws.Prop.Phi); err != nil {
		return d, err
	}
	recordShape(tr, unit, dec)
	if err := probeNetsim(ctx, tr, unit, sim, g, s, a); err != nil {
		o.wrongf("certify: %v", err)
	}
	return d, probeCerts(tr, unit, a)
}
