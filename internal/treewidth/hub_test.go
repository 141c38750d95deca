package treewidth

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
	"repro/internal/netsim"
)

// TestCliqueTuplesHubProbes keeps the hub bound: at the hub of a
// 4,096-leaf star (T=1), and of a hub joined to a 4,096-vertex path
// (T=2), Verify's clique-tuple check asks O((d+1)·(T+1)^(r−1)) adjacency
// questions — bag entries read while building the view's evidence
// adjacency, out-list entries drawn and triangle-closing probes — for
// r = 2 and 3. Drawing every view point after every other asked
// (d+1)^r.
func TestCliqueTuplesHubProbes(t *testing.T) {
	// factor is the bound's constant; the cases below reach 1.7 of it.
	const d, factor = 4096, 2
	two, _ := PropertyByName("2-colorable")
	three, _ := PropertyByName("3-colorable")
	triFree, err := PropertyFromFormula(logic.TriangleFree())
	if err != nil {
		t.Fatal(err)
	}
	hit, err := PropertyFromFormula(logic.MustParse(hitTriangles))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		t    int
		prop Property
	}{
		{"star", graphgen.Star(d + 1), 1, two},
		{"star", graphgen.Star(d + 1), 1, triFree},
		{"hub-path", hubPath(t, d), 2, three},
		{"hub-path", hubPath(t, d), 2, hit},
	} {
		s := &MSOScheme{T: c.t, Prop: c.prop}
		a, err := s.Prove(c.g)
		if err != nil {
			t.Fatalf("%s %s: %v", c.name, c.prop.Name, err)
		}
		table := make([]any, c.g.N())
		s.ParseRange(c.g, a, 0, c.g.N(), table)
		hub := cert.AssembleView(c.g, a, table, 0, nil)
		if len(hub.Neighbors) != d {
			t.Fatalf("%s: hub degree %d, want %d", c.name, len(hub.Neighbors), d)
		}
		sc := &verifyScratch{}
		for _, nb := range hub.Neighbors {
			sc.neighbors = append(sc.neighbors, nb.Parsed.(*Payload))
		}
		ok, probes := sc.tuplesOK(c.prop.Phi, &hub, table[0].(*Payload))
		if !ok {
			t.Fatalf("%s %s: hub rejects its honest view", c.name, c.prop.Name)
		}
		bound := d + 1
		for i := 1; i < len(c.prop.Phi.Vars); i++ {
			bound *= c.t + 1
		}
		t.Logf("%s %s: %d probes, (d+1)·(T+1)^(r−1) = %d", c.name, c.prop.Name, probes, bound)
		if probes > factor*bound {
			t.Errorf("%s %s: %d probes at the hub, above %d·(d+1)·(T+1)^(r−1) = %d",
				c.name, c.prop.Name, probes, factor, factor*bound)
		}
		if !s.Verify(hub) {
			t.Fatalf("%s %s: Verify rejects the hub's honest view", c.name, c.prop.Name)
		}
	}
}

// TestHeuristicStarAllocationLinear: a star's hub is a cut vertex in
// every one of its blocks, and copying each block used to scan the hub's
// whole row and size an arena by it — allocation quadratic in the leaf
// count (15× from 5,000 to 20,000 leaves). It must now grow linearly:
// within 5× for 4× the leaves.
func TestHeuristicStarAllocationLinear(t *testing.T) {
	alloc := func(leaves int) uint64 {
		g := graphgen.Star(leaves + 1)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d, _, err := HeuristicCtx(context.Background(), g)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if d.Width() != 1 {
			t.Fatalf("%d-leaf star: width %d, want 1", leaves, d.Width())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(5_000), alloc(20_000)
	if large > 5*small {
		t.Fatalf("heuristic allocated %d B on a 5,000-leaf star and %d B on a 20,000-leaf one (%.1f×, limit 5×)",
			small, large, float64(large)/float64(small))
	}
}

// BenchmarkTWMSOVerifyHub measures one verification round of honest
// 2-colorable certificates (T=1) on a 20,000-leaf star, on the
// sequential referee and on the sharded simulator: the hub's view holds
// every vertex, so a tuple check quadratic in the degree shows at once.
func BenchmarkTWMSOVerifyHub(b *testing.B) {
	g := graphgen.Star(20_001)
	prop, _ := PropertyByName("2-colorable")
	s := &MSOScheme{T: 1, Prop: prop}
	a, err := s.Prove(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := cert.RunSequentialCtx(context.Background(), g, s, a)
			if err != nil || !res.Accepted {
				b.Fatalf("rejected: %v %v", err, res.Rejecters)
			}
		}
	})
	b.Run("netsim", func(b *testing.B) {
		e := &netsim.Engine{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := e.Run(context.Background(), g, s, a)
			if err != nil || !rep.Accepted {
				b.Fatalf("rejected: %v %v", err, rep.Rejecters)
			}
		}
	})
}

// TestHeuristicAllocationsPerVertex: the block split decomposes into one
// builder, whose bags are cut from shared chunks and whose tree rows are
// laid out once, so HeuristicCtx on a 20,000-vertex partial 4-tree (29
// blocks, the largest through the min-fill vs min-degree contest) makes
// at most one allocation per vertex, where one slice per bag or per tree
// row would make several. Most of what is left is the sparse engine
// giving a row its own array on its first fill edge.
func TestHeuristicAllocationsPerVertex(t *testing.T) {
	g, _ := graphgen.PartialKTree(20_000, 4, 0.85, rand.New(rand.NewSource(1)))
	if blocks := len(g.BiconnectedComponents()); blocks != 29 {
		t.Fatalf("%d blocks, want 29", blocks)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, _, err := HeuristicCtx(context.Background(), g); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for %d vertices", allocs, g.N())
	if allocs > float64(g.N()) {
		t.Errorf("HeuristicCtx made %.0f allocations on %d vertices, want at most one per vertex", allocs, g.N())
	}
}
