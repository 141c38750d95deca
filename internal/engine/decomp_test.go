package engine

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/graphgen"
)

// TestFingerprintSeparates checks which graphs the decomposition-cache
// key keeps apart: graphs one edge apart, graphs that differ only in
// their identifiers, and row streams that differ only in where one row
// ends and the next begins get distinct keys, while one graph built
// through a Builder and through AddEdge gets one key.
func TestFingerprintSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base, _ := graphgen.PartialKTree(300, 3, 0.7, rng)
	key := fingerprint(base)

	// One edge more or less.
	edges := base.Edges()
	for _, drop := range []int{0, len(edges) / 2, len(edges) - 1} {
		b := graph.NewBuilder(base.N())
		for i, e := range edges {
			if i != drop {
				b.MustAddEdge(e[0], e[1])
			}
		}
		g, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(g) == key {
			t.Fatalf("dropping edge %v keeps the key", edges[drop])
		}
	}
	plus := base.Clone()
	for u := 0; ; u++ {
		if v := base.N() - 1 - u; !plus.HasEdge(u, v) {
			plus.MustAddEdge(u, v)
			break
		}
	}
	if fingerprint(plus) == key {
		t.Fatal("an added edge keeps the key")
	}

	// The same rows under other identifiers: one raised, all shifted by
	// one, two swapped.
	n := base.N()
	raised, shifted, swapped := idRange(n, 1), idRange(n, 2), idRange(n, 1)
	raised[n-1] = graph.ID(2 * n)
	swapped[5], swapped[9] = swapped[9], swapped[5]
	for _, ids := range [][]graph.ID{raised, shifted, swapped} {
		g, err := graph.NewWithIDs(ids)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			g.MustAddEdge(e[0], e[1])
		}
		if fingerprint(g) == key {
			t.Fatalf("identifiers %v... keep the key", ids[:10])
		}
	}

	// Where one row ends and the next begins. No two graphs on the same
	// identifiers have the same neighbour stream cut differently into
	// rows — a vertex's degree is both its row's length and its number
	// of occurrences in the stream — so the case is checked on the row
	// fold the fingerprint runs over every row.
	for _, c := range [][2][][]int32{
		{{{1, 2}, {3}}, {{1}, {2, 3}}},
		{{{}, {0, 1}}, {{0}, {1}}},
		{{{4, 5, 6}, {}}, {{}, {4, 5, 6}}},
	} {
		fold := func(rows [][]int32) uint64 {
			h := uint64(fingerprintSeed)
			for _, row := range rows {
				h = foldRow(h, row)
			}
			return h
		}
		if fold(c[0]) == fold(c[1]) {
			t.Fatalf("rows %v and %v fold to one key", c[0], c[1])
		}
	}

	// One graph, two construction paths.
	mutable := graph.New(base.N())
	for i := len(edges) - 1; i >= 0; i-- {
		mutable.MustAddEdge(edges[i][1], edges[i][0])
	}
	if fingerprint(mutable) != key {
		t.Fatal("the same graph built through AddEdge gets another key")
	}
}

// idRange returns the n identifiers first, first+1, ...
func idRange(n int, first graph.ID) []graph.ID {
	ids := make([]graph.ID, n)
	for i := range ids {
		ids[i] = first + graph.ID(i)
	}
	return ids
}

// BenchmarkFingerprint100k measures the decomposition-cache key on
// certbench's graph shape, a 10⁵-vertex partial 4-tree; a tw-mso
// certify computes it twice, at the prewarm and at the prover's lookup.
func BenchmarkFingerprint100k(b *testing.B) {
	g, _ := graphgen.PartialKTree(100_000, 4, 0.85, rand.New(rand.NewSource(9)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fingerprint(g)
	}
}
