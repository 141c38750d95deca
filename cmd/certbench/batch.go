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
	"repro/internal/graphgen"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/treewidth"
	"repro/internal/wire"
)

// batch-small: a closed loop, one caller, of 64-job batches through
// engine.Pipeline.Run with GOMAXPROCS workers. Thousands of tiny jobs:
// orchestration, compile-cache hits, formula canonicalisation and
// small-n decomposition (the dense bitset elimination path, n <= 128)
// dominate, and the large-n layers barely run.
func runBatchSmall(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome(cfg)
	defer o.speed.during()()
	o.inProcess()
	var st *batchState
	for r := 0; r < setupReps; r++ {
		unit := o.tr.unit(kindSetup, r)
		err := o.timeSetup(func() (err error) {
			st, err = batchSetup(ctx, cfg.seed, o.tr, unit)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	workers := st.workers
	before := snapCache(st.cache)
	err := closedLoop(cfg, 20, func(i int) error {
		traced := o.tracedOp(i)
		tr := o.tr
		if !traced {
			tr = nil
		}
		unit := tr.unit(kindOp, i)
		jobs, specs := st.batch(cfg.seed, i)
		o.attempted++
		root := tr.begin(unit, -1, opSpan)
		t0 := time.Now()
		sp := tr.begin(unit, root, "engine.pipeline")
		results, err := st.pipe.Run(ctx, jobs)
		tr.finish(sp)
		d := time.Since(t0)
		tr.finish(root)
		if err != nil {
			o.failf("batch %d: %v", i, err)
			return nil
		}
		if !st.check(results, specs, o) {
			return nil
		}
		o.observe(traced, d, float64(len(jobs)))
		if tr != nil {
			if err := st.ledger(ctx, tr, unit, results, specs, workers, d); err != nil {
				o.failf("batch %d probes: %v", i, err)
			}
		}
		return nil
	})
	o.cacheRatios(before, snapCache(st.cache))
	o.detail["jobs_per_batch"] = batchJobs
	return o, err
}

// batchJobs is the batch size.
const batchJobs = 64

// Job kinds of the mix.
const (
	jobTreeMSO   = iota // tree-mso library property on a path
	jobTwPool           // tw-mso on a partial 2-tree seen before (decomposition cache hit)
	jobTwFresh          // tw-mso on a never-seen partial 2-tree (miss, bitset elimination)
	jobUniversal        // universal, verified on the sharded simulator
	jobTreeFO           // tree-fo formula on a random tree
	jobLazy             // generator spec built inside the worker, witness attached
)

// treeFOFormula is the tree-fo sentence of the mix; in 1 of 8 jobs its
// bound variables are renamed from the seed, so canonicalisation runs
// while the compiled scheme stays shared.
const treeFOFormula = "forall x. exists y. x ~ y"

// jobSpec is the benchmark's record of one job: what it is (key names a
// repeatable instance, "" for fresh ones) and what the probes need.
type jobSpec struct {
	kind   int
	key    string
	g      *graph.Graph
	lazy   *wire.GeneratorSpec
	scheme string
	params registry.Params
}

// batchState is what set-up leaves: the warm engine and pipeline and the
// instance pools jobs draw from.
type batchState struct {
	cache   *engine.Cache
	pipe    *engine.Pipeline
	workers int
	paths   []*graph.Graph
	twPool  []*graph.Graph
	trees   []*graph.Graph
	bits    map[string]int
}

const poolSize = 16

// batchSetup builds the pools, compiles every scheme of the mix once on a
// cold engine and runs two warm-up batches, so the pipeline's pools and
// the heap have settled before timing.
func batchSetup(ctx context.Context, seed int64, tr *tracer, unit string) (*batchState, error) {
	st := &batchState{cache: newCache(), bits: map[string]int{}, workers: runtime.GOMAXPROCS(0)}
	st.pipe = &engine.Pipeline{Cache: st.cache, Workers: st.workers, Sim: &netsim.Engine{Workers: st.workers}}
	sp := tr.begin(unit, -1, "graphgen.generate")
	rng := rand.New(rand.NewSource(seedFor(seed, "batch-pools", 0)))
	for i := 0; i < poolSize; i++ {
		st.paths = append(st.paths, graphgen.Path(8+4*i))
		st.twPool = append(st.twPool, partial2Tree(32+rng.Intn(97), rng.Int63()))
		// Sizes 8..16 in every run: the universal certificates of the
		// largest tree set cert_max_bits, whatever the seed.
		st.trees = append(st.trees, graphgen.RandomTree(8+i%9, rand.New(rand.NewSource(rng.Int63()))))
	}
	tr.finish(sp)
	warm := []struct {
		scheme string
		p      registry.Params
	}{
		{"tree-mso", registry.Params{Property: "perfect-matching"}},
		{"tree-mso", registry.Params{Property: "max-degree-<=2"}},
		{"tw-mso", registry.Params{Property: "tw-bound", T: 2}},
		{"tw-mso", registry.Params{Property: "3-colorable", T: 2}},
		{"universal", registry.Params{Property: "connected"}},
		{"universal", registry.Params{Property: "is-tree"}},
		{"tree-fo", registry.Params{Formula: treeFOFormula}},
	}
	for _, w := range warm {
		sp := tr.begin(unit, -1, "engine.compile")
		_, err := st.cache.GetOrCompileCtx(ctx, w.scheme, w.p)
		tr.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", w.scheme, err)
		}
	}
	for i := 0; i < 2; i++ {
		jobs, _ := st.batch(seed, -1-i)
		sp := tr.begin(unit, -1, "engine.pipeline")
		_, err := st.pipe.Run(ctx, jobs)
		tr.finish(sp)
		if err != nil {
			return nil, fmt.Errorf("warm-up batch: %w", err)
		}
	}
	return st, nil
}

// partial2Tree is a connected partial 2-tree (keep 0.6): treewidth <= 2,
// so the min-degree heuristic finds width 2 and t=2 always certifies.
func partial2Tree(n int, seed int64) *graph.Graph {
	g, _ := graphgen.PartialKTree(n, 2, 0.6, rand.New(rand.NewSource(seed)))
	return g
}

// batch draws batch i's 64 jobs from its own seed.
func (st *batchState) batch(seed int64, i int) ([]engine.Job, []jobSpec) {
	rng := rand.New(rand.NewSource(seedFor(seed, "batch", i)))
	jobs := make([]engine.Job, batchJobs)
	specs := make([]jobSpec, batchJobs)
	// Weights over the kinds, renamed tree-fo jobs aside.
	kinds := []int{jobTreeMSO, jobTreeMSO, jobTwPool, jobTwFresh, jobUniversal, jobTreeFO, jobLazy}
	for j := range jobs {
		var sp jobSpec
		kind := kinds[rng.Intn(len(kinds))]
		if j%8 == 0 {
			kind = jobTreeFO
		}
		switch kind {
		case jobTreeMSO:
			k := rng.Intn(poolSize)
			sp = jobSpec{g: st.paths[k], scheme: "tree-mso"}
			// Even paths have a perfect matching; every path has max degree 2.
			sp.params.Property = "max-degree-<=2"
			if st.paths[k].N()%2 == 0 && rng.Intn(2) == 0 {
				sp.params.Property = "perfect-matching"
			}
			sp.key = fmt.Sprintf("path/%d/%s", k, sp.params.Property)
		case jobTwPool, jobTwFresh:
			sp = jobSpec{scheme: "tw-mso", params: registry.Params{Property: "tw-bound", T: 2}}
			if rng.Intn(2) == 0 {
				sp.params.Property = "3-colorable"
			}
			if kind == jobTwPool {
				k := rng.Intn(poolSize)
				sp.g = st.twPool[k]
				sp.key = fmt.Sprintf("tw/%d/%s", k, sp.params.Property)
			} else {
				sp.g = partial2Tree(32+rng.Intn(97), rng.Int63())
			}
		case jobUniversal:
			k := rng.Intn(poolSize)
			sp = jobSpec{g: st.trees[k], scheme: "universal", params: registry.Params{Property: "connected"}}
			if rng.Intn(2) == 0 {
				sp.params.Property = "is-tree"
			}
			sp.key = fmt.Sprintf("universal/%d/%s", k, sp.params.Property)
		case jobTreeFO:
			k := rng.Intn(poolSize)
			sp = jobSpec{g: st.trees[k], scheme: "tree-fo", params: registry.Params{Formula: treeFOFormula}}
			if j%8 == 0 {
				x, y := fmt.Sprintf("x%d", rng.Intn(1_000_000)), fmt.Sprintf("y%d", rng.Intn(1_000_000))
				sp.params.Formula = fmt.Sprintf("forall %s. exists %s. %s ~ %s", x, y, x, y)
			}
			sp.key = fmt.Sprintf("tree-fo/%d", k)
		case jobLazy:
			gen := wire.GeneratorSpec{Kind: "partial-k-tree", N: 64, T: 2, Density: 0.6, Seed: int64(rng.Intn(poolSize))}
			sp = jobSpec{lazy: &gen, scheme: "tw-mso", params: registry.Params{Property: "tw-bound", T: 2}}
			sp.key = fmt.Sprintf("lazy/%d", gen.Seed)
		}
		sp.kind = kind
		specs[j] = sp
		jobs[j] = engine.Job{Graph: sp.g, Scheme: sp.scheme, Params: sp.params, Distributed: kind == jobUniversal}
		if sp.lazy != nil {
			gen, params := *sp.lazy, sp.params
			jobs[j].Lazy = func() (*graph.Graph, registry.Params, error) {
				g, w, err := gen.Build()
				p := params
				p.DecompProvider = w.Decomp
				return g, p, err
			}
		}
	}
	return jobs, specs
}

// check holds every job to its expected verdict (all jobs are
// yes-instances, so every one must be accepted) and every repeated
// instance to the certificate size it had before. It returns false when
// the batch had a wrong verdict.
func (st *batchState) check(results []engine.JobResult, specs []jobSpec, o *outcome) bool {
	ok := true
	for j, res := range results {
		sp := specs[j]
		switch {
		case res.Err != nil:
			o.wrongf("batch job %d (%s %s): %v", j, sp.scheme, sp.key, res.Err)
			return false
		case !res.Accepted:
			o.wrongf("batch job %d (%s %s): rejected by %v", j, sp.scheme, sp.key, res.Rejecters)
			return false
		}
		o.bits(res.MaxBits)
		if sp.key == "" {
			continue
		}
		if prev, seen := st.bits[sp.key]; seen && prev != res.MaxBits {
			o.wrongf("batch: %s certified with %d max bits, earlier %d", sp.key, res.MaxBits, prev)
			ok = false
		}
		st.bits[sp.key] = res.MaxBits
	}
	return ok
}

// ledger adds one traced batch's layer split: the per-job phase times the
// pipeline reports, plus probes on the batch's tw-mso graphs for the
// pieces that run inside decompose and prove.
func (st *batchState) ledger(ctx context.Context, tr *tracer, unit string, results []engine.JobResult, specs []jobSpec, workers int, wall time.Duration) error {
	var phases, twProve, freshDecompose time.Duration
	totalBits := 0
	for j, res := range results {
		tr.addDur(unit, "graphgen.generate", res.Generate)
		tr.addDur(unit, "engine.compile", res.Compile)
		tr.addDur(unit, "engine.decompose", res.Decompose)
		tr.addDur(unit, "cert.prove", res.Prove)
		if res.Distributed {
			tr.addDur(unit, "netsim.round", res.Verify)
		} else {
			tr.addDur(unit, "cert.verify", res.Verify)
		}
		phases += res.Generate + res.Compile + res.Decompose + res.Prove + res.Verify
		totalBits += res.TotalBits
		if specs[j].scheme == "tw-mso" {
			twProve += res.Prove
		}
		if specs[j].kind == jobTwFresh {
			freshDecompose += res.Decompose
		}
	}
	tr.add(unit, "engine.orchestration_share", 1-float64(phases)/(float64(workers)*float64(wall)))
	tr.add(unit, "cert.total_bits", float64(totalBits))
	tr.add(unit, "netsim.workers", float64(workers))

	var probed float64
	width, bags := 0, 0
	for _, sp := range specs {
		if sp.scheme != "tw-mso" {
			continue
		}
		g := sp.g
		var d *treewidth.Decomposition
		var err error
		if sp.lazy != nil {
			var w wire.Witness
			if g, w, err = sp.lazy.Build(); err == nil {
				d, err = w.Decomp(g)
			}
		} else {
			d, err = st.cache.Decomps.Provider()(g)
		}
		if err != nil {
			return fmt.Errorf("probe decomposition: %w", err)
		}
		var buf bytes.Buffer
		if err := wire.EncodeGraphStream(&buf, g); err != nil {
			return err
		}
		if err := probeDecode(tr, unit, buf.Bytes()); err != nil {
			return err
		}
		s, err := st.cache.GetOrCompile("tw-mso", sp.params)
		if err != nil {
			return err
		}
		tws, err := twScheme(s)
		if err != nil {
			return err
		}
		blocksBefore := tr.ledgerValue(unit, "graph.blocks_ms")
		if err := probeTreewidth(ctx, tr, unit, g, d, tws.Prop.Phi); err != nil {
			return err
		}
		if sp.kind == jobTwFresh {
			probed += tr.ledgerValue(unit, "graph.blocks_ms") - blocksBefore
		}
		width = max(width, d.Width())
		bags += d.NumBags()
	}
	tr.add(unit, "treewidth.width", float64(width))
	tr.add(unit, "treewidth.bags", float64(bags))
	// Elimination time: what the never-seen graphs spent decomposing,
	// minus their block split. Pool graphs hit the decomposition cache.
	tr.add(unit, "treewidth.eliminate_ms", ms(freshDecompose)-probed)
	tr.add(unit, "treewidth.prove_rest_ms", ms(twProve)-
		tr.ledgerValue(unit, "treewidth.validate_ms")-tr.ledgerValue(unit, "treewidth.nice_ms")-tr.ledgerValue(unit, "treewidth.emso_dp_ms"))

	// Prove allocations and the certificate decode, on one honest
	// assignment of the batch (its first pool graph; a batch without one,
	// about 1 in 5000, leaves these to the other traced batches).
	for _, sp := range specs {
		if sp.kind != jobTwPool {
			continue
		}
		s, err := st.cache.GetOrCompile(sp.scheme, sp.params)
		if err != nil {
			return err
		}
		done := tr.allocs(unit, "cert.prove")
		a, err := cert.ProveWithContext(ctx, s, sp.g)
		done()
		if err != nil {
			return err
		}
		return probeCerts(tr, unit, a)
	}
	return nil
}
