package treewidth

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graphgen"
)

// TestProveMatchesReference holds ProveCtx's certificates byte for byte
// to proveReference, which runs the nice conversion and the EMSO DP on
// every prove and builds a Payload per vertex. The graphs: partial 2-, 3-
// and 4-trees, each also with shuffled identifiers (home bags sorted by
// identifier out of index order); a star and a hub joined to a path, whose
// hub rows are long; under tw-bound (no DP now) and 3-colorable, whose
// certificates carry the DP's witness bits.
func TestProveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type proveCase struct {
		name string
		g    *graph.Graph
		t    int
	}
	var cases []proveCase
	for k := 2; k <= 4; k++ {
		g, _ := graphgen.PartialKTree(400, k, 0.85, rand.New(rand.NewSource(int64(k))))
		cases = append(cases,
			proveCase{fmt.Sprintf("partial-%d-tree", k), g, k + 2},
			proveCase{fmt.Sprintf("partial-%d-tree-shuffled", k), shuffledIDs(t, g, rng), k + 2})
	}
	cases = append(cases,
		proveCase{"star", graphgen.Star(300), 1},
		proveCase{"star-shuffled", shuffledIDs(t, graphgen.Star(300), rng), 1},
		proveCase{"hub-path", hubPath(t, 300), 2},
		proveCase{"hub-path-shuffled", shuffledIDs(t, hubPath(t, 300), rng), 2})
	withState := 0
	for _, c := range cases {
		for _, name := range []string{"tw-bound", "3-colorable"} {
			prop, ok := PropertyByName(name)
			if !ok {
				t.Fatalf("%s missing", name)
			}
			s := &MSOScheme{T: c.t, Prop: prop}
			want, werr := proveReference(s, c.g)
			got, err := s.ProveCtx(context.Background(), c.g)
			if (err != nil) != (werr != nil) {
				t.Fatalf("%s %s: ProveCtx error %v, reference error %v", c.name, name, err, werr)
			}
			if err != nil {
				continue // a partial 4-tree need not be 3-colorable
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d certificates, reference %d", c.name, name, len(got), len(want))
			}
			for v := range want {
				if !slices.Equal(got[v], want[v]) {
					t.Fatalf("%s %s: vertex %d (id %d): certificate differs from the reference", c.name, name, v, c.g.IDOf(v))
				}
			}
			if prop.Phi.NumSets() > 0 {
				withState++
			}
		}
	}
	if withState < 4 {
		t.Fatalf("only %d 3-colorable proves succeeded: the witness bits go unchecked", withState)
	}
}
