package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/cert"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// verify-large: a closed loop over honest certificates of one large
// partial 4-tree, proven at set-up. Each op is the read path only: the
// /verify certificate decode, a compile-cache lookup, the sequential
// referee (must accept), then one bit of one certificate flipped and one
// sharded netsim round (at least one vertex must reject). Decompose and
// prove never run inside an op, so their optimisations must not move this
// workload's op latency.
func runVerifyLarge(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome(cfg)
	defer o.speed.during()()
	o.inProcess()
	var st *verifyState
	for r := 0; r < setupReps; r++ {
		unit := o.tr.unit(kindSetup, r)
		var s *verifyState
		err := o.timeSetup(func() (err error) {
			s, err = verifySetup(ctx, cfg, o.tr, unit)
			return err
		})
		if err != nil {
			return nil, err
		}
		// Each set-up proves the same graph from scratch: the paper's
		// measure must come out identical every time.
		if st != nil && s.maxBits != st.maxBits {
			o.wrongf("verify: cert_max_bits %d then %d for the same graph", st.maxBits, s.maxBits)
		}
		st = s
	}
	o.bits(st.maxBits)
	sim := &netsim.Engine{Workers: runtime.GOMAXPROCS(0)}
	rng := rand.New(rand.NewSource(seedFor(cfg.seed, "verify-flip", 0)))
	before := snapCache(st.cache)
	err := closedLoop(cfg, 3, func(i int) error {
		traced := o.tracedOp(i)
		tr := o.tr
		if !traced {
			tr = nil
		}
		unit := tr.unit(kindOp, i)
		// Each op starts from a collected heap, so its time and peak memory
		// do not depend on the garbage the previous op left behind.
		runtime.GC()
		o.attempted++
		d, err := st.op(ctx, tr, unit, sim, rng, o)
		if err != nil {
			o.failf("verify op %d: %v", i, err)
			return nil
		}
		o.observe(traced, d, 1)
		return nil
	})
	o.cacheRatios(before, snapCache(st.cache))
	o.detail["n"] = cfg.n
	return o, err
}

// verifyState is what set-up leaves for the ops: the graph, the compiled
// engine and the honest certificates in their JSON bit-string form.
type verifyState struct {
	g       *graph.Graph
	cache   *engine.Cache
	certs   []string
	maxBits int
}

// verifySetup generates the graph and proves it through the served
// stream path on a cold engine.
func verifySetup(ctx context.Context, cfg config, tr *tracer, unit string) (*verifyState, error) {
	_, body, err := genLarge(tr, unit, cfg.n, seedFor(cfg.seed, "verify", 0))
	if err != nil {
		return nil, err
	}
	done := tr.allocs(unit, "wire.decode")
	sp := tr.begin(unit, -1, "wire.decode")
	g, err := wire.DecodeGraphStream(bytes.NewReader(body), wire.StreamLimits{})
	tr.finish(sp)
	done()
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	cache := newCache()
	sp = tr.begin(unit, -1, "engine.compile")
	s, err := cache.GetOrCompileCtx(ctx, "tw-mso", largeParams)
	tr.finish(sp)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	sp = tr.begin(unit, -1, "engine.decompose")
	cache.PrewarmDecomposition(ctx, s, g)
	tr.finish(sp)
	done = tr.allocs(unit, "cert.prove")
	sp = tr.begin(unit, -1, "cert.prove")
	a, err := cert.ProveWithContext(ctx, s, g)
	tr.finish(sp)
	done()
	if err != nil {
		return nil, fmt.Errorf("prove: %w", err)
	}
	if tr != nil {
		tr.add(unit, "cert.total_bits", float64(a.TotalBits()))
		tws, err := twScheme(s)
		if err != nil {
			return nil, err
		}
		dec, err := cache.Decomps.Provider()(g)
		if err != nil {
			return nil, fmt.Errorf("probe decomposition: %w", err)
		}
		if err := probeTreewidth(ctx, tr, unit, g, dec, tws.Prop.Phi); err != nil {
			return nil, err
		}
		recordShape(tr, unit, dec)
	}
	return &verifyState{g: g, cache: cache, certs: wire.AssignmentToStrings(a), maxBits: a.MaxBits()}, nil
}

// op runs one verify round trip plus the tamper check.
func (st *verifyState) op(ctx context.Context, tr *tracer, unit string, sim *netsim.Engine, rng *rand.Rand, o *outcome) (time.Duration, error) {
	root := tr.begin(unit, -1, opSpan)
	t0 := time.Now()
	sp := tr.begin(unit, root, "wire.certs_decode")
	a, err := wire.AssignmentFromStrings(st.certs)
	tr.finish(sp)
	if err != nil {
		return 0, fmt.Errorf("certs decode: %w", err)
	}
	sp = tr.begin(unit, root, "engine.compile")
	s, err := st.cache.GetOrCompileCtx(ctx, "tw-mso", largeParams)
	tr.finish(sp)
	if err != nil {
		return 0, fmt.Errorf("compile: %w", err)
	}
	sp = tr.begin(unit, root, "cert.verify")
	res, err := cert.RunSequentialCtx(ctx, st.g, s, a)
	tr.finish(sp)
	if err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	// Tamper: flip one bit of one certificate. Every certificate carries
	// a guard over its bits, so its owner must reject.
	v := rng.Intn(len(a))
	a[v][rng.Intn(len(a[v]))] ^= 1
	sp = tr.begin(unit, root, "netsim.round")
	rep, err := sim.Run(ctx, st.g, s, a)
	tr.finish(sp)
	if err != nil {
		return 0, fmt.Errorf("netsim: %w", err)
	}
	d := time.Since(t0)
	tr.finish(root)

	if !res.Accepted {
		o.wrongf("verify: honest certificates rejected by %d vertices", len(res.Rejecters))
	}
	if rep.Accepted {
		o.wrongf("verify: certificate of vertex %d flipped, yet every vertex accepted", v)
	}
	if b := a.MaxBits(); b != st.maxBits {
		o.wrongf("verify: decoded certificates have %d max bits, proven %d", b, st.maxBits)
	}
	tr.add(unit, "netsim.workers", float64(rep.Workers))
	return d, nil
}
