package treewidth

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/netsim"
)

// shuffledIDs returns g with its identifiers permuted and spread out
// (index v keeps its edges), so every view sorts its neighbours out of
// index order.
func shuffledIDs(t *testing.T, g *graph.Graph, rng *rand.Rand) *graph.Graph {
	t.Helper()
	ids := make([]graph.ID, g.N())
	for v, p := range rng.Perm(g.N()) {
		ids[v] = graph.ID(3*p + 1)
	}
	b, err := graph.NewBuilderWithIDs(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		b.MustAddEdge(e[0], e[1])
	}
	h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestParseOnceRoundMatchesPerViewDecoding is the differential test of
// the parse-once round. On honest and tampered tw-mso certificates of
// partial 2-trees, three referees must name exactly the same rejecters:
// the sequential runner (one parse per certificate per round), a loop
// calling Verify on raw views (a decode in every view, the path
// hand-built views take) and the sharded simulator at 1, 2 and 7 workers
// (parse pass and verify pass split across shards).
func TestParseOnceRoundMatchesPerViewDecoding(t *testing.T) {
	tampers := append(cert.StandardTampers(), BagTampers()...)
	rejected := 0
	for _, name := range []string{"tw-bound", "3-colorable"} {
		prop, ok := PropertyByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g, attach := graphgen.PartialKTree(40+20*int(seed), 2, 0.7, rng)
			g = shuffledIDs(t, g, rng)
			s := &MSOScheme{T: 2, Prop: prop, Decomps: DecompFunc(func(gg *graph.Graph) (*Decomposition, error) {
				return FromKTree(gg.N(), 2, attach)
			})}
			honest, err := s.Prove(g)
			if err != nil {
				t.Fatal(err)
			}
			rounds := []cert.Assignment{honest}
			for _, tm := range tampers {
				for trial := 0; trial < 3; trial++ {
					if a, mutated := tm.Apply(honest, rng); mutated {
						rounds = append(rounds, a)
					}
				}
			}
			for i, a := range rounds {
				var raw []int
				for v := 0; v < g.N(); v++ {
					if !s.Verify(cert.ViewOf(g, a, v)) {
						raw = append(raw, v)
					}
				}
				if i == 0 && len(raw) > 0 {
					t.Fatalf("%s seed %d: honest certificates rejected at %v", name, seed, raw)
				}
				if len(raw) > 0 {
					rejected++
				}
				seq, err := cert.RunSequentialCtx(context.Background(), g, s, a)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(seq.Rejecters, raw) {
					t.Fatalf("%s seed %d round %d: sequential rejecters %v, per-view decoding %v", name, seed, i, seq.Rejecters, raw)
				}
				for _, workers := range []int{1, 2, 7} {
					rep, err := (&netsim.Engine{Workers: workers}).Run(context.Background(), g, s, a)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(rep.Rejecters, raw) {
						t.Fatalf("%s seed %d round %d workers %d: netsim rejecters %v, per-view decoding %v", name, seed, i, workers, rep.Rejecters, raw)
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no tampered round was rejected: the comparison is vacuous")
	}
}
