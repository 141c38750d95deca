// Command certify is a small CLI around the certification engine:
// generate a graph family, pick a scheme, prove and verify it through the
// same runner the server uses (sequentially or on the sharded simulated
// network), optionally attack the proof with flipped bits or an
// adversarial tamper sweep, and report certificate sizes.
//
// The graph kinds come from the shared generator spec (internal/wire), the
// scheme names and property lists come from the scheme registry, and the
// tamper kinds come from the shared tamper spec, so this command, the
// facade and cmd/certserver always agree on what exists.
//
// Usage examples:
//
//	certify -graph path -n 64 -scheme tree-mso -property perfect-matching
//	certify -graph random-td -n 200 -t 4 -scheme treedepth
//	certify -graph star -n 50 -scheme depth2-fo -formula "exists x. forall y. x = y | x ~ y"
//	certify -graph path -n 32 -scheme tree-mso -property max-degree-<=2 -tamper 3
//	certify -graph cycle -n 100 -scheme universal -property connected -distributed -workers 4 -tamper-kind all -trials 25
//	certify -graph partial-k-tree -n 200 -t 3 -scheme tw-mso -property tw-bound -decompose -tamper-kind corrupt-bag
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"

	compactcert "repro"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/treewidth"
	"repro/internal/wire"
)

func main() {
	os.Exit(run())
}

// loadGraphStream reads one wire-v2 binary graph from a file.
func loadGraphStream(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return wire.DecodeGraphStream(f, wire.StreamLimits{})
}

// emitGraphStream writes g to a file in the wire-v2 binary format.
func emitGraphStream(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := wire.EncodeGraphStream(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// schemeNames renders the flag help for -scheme from the registry listing
// plus the historical alias.
func schemeNames() string {
	names := make([]string, 0, 16)
	for _, info := range compactcert.Schemes() {
		names = append(names, info.Name)
	}
	names = append(names, "universal-diam2")
	return strings.Join(names, " | ")
}

func run() int {
	var (
		graphKind = flag.String("graph", "path", strings.Join(wire.GeneratorKinds(), " | "))
		n         = flag.Int("n", 32, "number of vertices")
		t         = flag.Int("t", 3, "treedepth/treewidth bound (treedepth/kernel/tw-mso schemes, random-td and k-tree families)")
		schemeSel = flag.String("scheme", "tree-mso", schemeNames())
		property  = flag.String("property", "perfect-matching",
			"tree-mso property: "+strings.Join(compactcert.TreeMSOProperties(), " | ")+
				"; tw-mso property: "+strings.Join(compactcert.TreewidthMSOProperties(), " | "))
		formula = flag.String("formula", "",
			"FO/MSO sentence; supersedes -property on formula-capable schemes "+
				"(default for formula-only schemes: \"forall x. exists y. x ~ y\")")
		seed        = flag.Int64("seed", 1, "random seed")
		density     = flag.Float64("density", 0, "extra-edge density for random-td / edge-keep probability for partial-k-tree (0 = default)")
		tamper      = flag.Int("tamper", 0, "flip this many random certificate bits before verifying")
		distributed = flag.Bool("distributed", true, "verify on the sharded network simulator instead of the sequential referee")
		workers     = flag.Int("workers", 0, "simulator worker bound (0 = GOMAXPROCS)")
		tamperKind  = flag.String("tamper-kind", "", "adversarial sweep: "+strings.Join(wire.TamperKinds(), " | "))
		tamperK     = flag.Int("tamper-k", 0, "bits to flip per trial for -tamper-kind flip-bits (0 = 1)")
		trials      = flag.Int("trials", 10, "trials per tamper for -tamper-kind sweeps")
		decompose   = flag.Bool("decompose", false, "print the graph's tree decomposition summary (heuristics, exact when small)")
		trace       = flag.Bool("trace", false, "print the phase span tree (the server's span names: compile/decompose/prove/verify/sweep) after the run")
		emitStream  = flag.String("emit-stream", "", "also write the graph to FILE in the binary stream format (wire v2)")
		loadStream  = flag.String("load-stream", "", "load the graph from FILE (binary stream format) instead of generating; -graph/-n/-density are ignored")
	)
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))
	// Ctrl-C cancels the run at the engine's next checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, root := obs.Start(ctx, "certify")
	// Deferred so error exits still close the root span; the trace would
	// otherwise show a forever-running phase (and certlint flags it).
	defer func() {
		root.End()
		if *trace {
			fmt.Println("trace:")
			root.WriteTree(os.Stdout)
		}
	}()

	var (
		g       *graph.Graph
		witness wire.Witness
		err     error
	)
	if *loadStream != "" {
		// Stream-loaded graphs carry no construction witness; witness-driven
		// schemes fall back to computing their own model.
		_, gsp := obs.Start(ctx, "generate")
		g, err = loadGraphStream(*loadStream)
		gsp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "certify: %v\n", err)
			return 2
		}
		*graphKind = "stream:" + *loadStream
	} else {
		spec := wire.GeneratorSpec{Kind: *graphKind, N: *n, T: *t, Density: *density, Seed: *seed}
		_, gsp := obs.Start(ctx, "generate")
		g, witness, err = spec.Build()
		gsp.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "certify: %v\n", err)
			return 2
		}
	}
	if *emitStream != "" {
		if err := emitGraphStream(*emitStream, g); err != nil {
			fmt.Fprintf(os.Stderr, "certify: %v\n", err)
			return 1
		}
		fmt.Printf("stream: wrote %s\n", *emitStream)
	}

	name := *schemeSel
	params := compactcert.SchemeParams{
		Property:       *property,
		Formula:        *formula,
		T:              *t,
		Provider:       witness.Model,
		DecompProvider: witness.Decomp,
	}
	if name == "universal-diam2" {
		// Historical alias for the generic upper-bound demo.
		name, params.Property = "universal", "diameter-<=2"
	}
	var entry *compactcert.SchemeInfo
	for _, info := range compactcert.Schemes() {
		if info.Name == name {
			i := info
			entry = &i
			break
		}
	}
	if entry == nil {
		// Usage error, like an unknown graph kind: exit 2.
		fmt.Fprintf(os.Stderr, "certify: unknown scheme %q\n", *schemeSel)
		return 2
	}
	// Formula-only schemes keep their historical default sentence; schemes
	// accepting both leave the formula empty so -property drives the build
	// unless the user asked for a formula explicitly (which supersedes it).
	needsFormula := entry.NeedsParam(compactcert.ParamFormula)
	needsProperty := entry.NeedsParam(compactcert.ParamProperty)
	if params.Formula == "" && needsFormula && !needsProperty {
		params.Formula = "forall x. exists y. x ~ y"
	}
	if params.Formula != "" {
		if err := wire.ValidateFormula(params.Formula); err != nil {
			fmt.Fprintf(os.Stderr, "certify: %v\n", err)
			return 2
		}
	}
	var sweep *engine.TamperSweep
	if *tamperKind != "" {
		spec := wire.TamperSpec{Kind: *tamperKind, K: *tamperK, Trials: *trials, Seed: *seed}
		tampers, err := spec.Tampers()
		if err != nil {
			fmt.Fprintf(os.Stderr, "certify: %v\n", err)
			return 2
		}
		sweep = &engine.TamperSweep{Tampers: tampers, Trials: spec.EffectiveTrials(), Seed: *seed}
	}

	root.SetAttr("graph", *graphKind)

	fmt.Printf("graph: %s n=%d m=%d\n", *graphKind, g.N(), g.M())
	if *decompose {
		for _, method := range []struct {
			name string
			f    func(*graph.Graph) (*treewidth.Decomposition, []int, int, error)
		}{{"min-fill", treewidth.MinFill}, {"min-degree", treewidth.MinDegree}} {
			d, _, width, err := method.f(g)
			if err != nil {
				fmt.Fprintf(os.Stderr, "certify: decompose: %v\n", err)
				return 1
			}
			fmt.Printf("decomposition (%s): width=%d bags=%d valid=%v\n",
				method.name, width, d.NumBags(), treewidth.IsValid(g, d))
		}
		if g.N() <= treewidth.ExactLimit {
			w, _, err := treewidth.Exact(g)
			if err != nil {
				fmt.Fprintf(os.Stderr, "certify: decompose: %v\n", err)
				return 1
			}
			fmt.Printf("decomposition (exact): treewidth=%d\n", w)
		}
	}

	// The honest pass and the tampered pass both run through the
	// engine's certify runner, like every server endpoint.
	cache := engine.NewCache(registry.Default())
	cache.Decomps = engine.NewDecompCache()
	sim := &netsim.Engine{Workers: *workers}
	pipe := &engine.Pipeline{Cache: cache, Sim: sim}
	job := engine.Job{Graph: g, Scheme: name, Params: params, Distributed: *distributed, Sweep: sweep}
	res, a := pipe.Certify(ctx, job)
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "certify: %v\n", res.Err)
		return 1
	}
	fmt.Printf("scheme: %s\n", res.Scheme)
	fmt.Printf("certificates: max %d bits, total %d bits\n", res.MaxBits, res.TotalBits)
	if *distributed {
		fmt.Printf("distributed verification: accepted=%v (1 round, %d nodes, %d workers)\n",
			res.Accepted, g.N(), sim.EffectiveWorkers(g.N()))
	} else {
		fmt.Printf("sequential verification: accepted=%v\n", res.Accepted)
	}

	if *tamper > 0 {
		// Verify-only: the flipped assignment is refereed, not re-proven.
		job.Certificates, job.Sweep = compactcert.FlipRandomBits(a, *tamper, rng), nil
		tctx, tsp := obs.Start(ctx, "tamper")
		tres, _ := pipe.Certify(tctx, job)
		tsp.End()
		if tres.Err != nil {
			fmt.Fprintf(os.Stderr, "certify: tampered run: %v\n", tres.Err)
			return 1
		}
		fmt.Printf("after flipping %d bits: accepted=%v, rejecting nodes=%v\n",
			*tamper, tres.Accepted, tres.Rejecters)
	}

	if res.Sweep != nil {
		fmt.Printf("adversarial sweep (%d trials per tamper):\n", sweep.Trials)
		for _, st := range res.Sweep.Stats {
			fmt.Printf("  %-12s mutated=%d detected=%d noops=%d rate=%.2f rejecters=%d\n",
				st.Tamper, st.Mutated, st.Detected, st.NoOps, st.DetectionRate(), st.Rejecters)
		}
		if !res.Sweep.AllDetected {
			fmt.Println("  WARNING: some corrupted assignments were accepted (see undetected trial indices above)")
		}
	}
	return 0
}
