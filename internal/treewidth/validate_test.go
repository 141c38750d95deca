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

// decompCase is one (graph, decomposition) pair of the differential
// corpus.
type decompCase struct {
	name string
	g    *graph.Graph
	d    *Decomposition
}

// decompCorpus collects the decompositions the package tests build: the
// elimination heuristics and HeuristicCtx on the standard families,
// exact search on small random graphs, k-tree witnesses, the join-heavy
// book graphs and a single vertex.
func decompCorpus(t testing.TB) []decompCase {
	t.Helper()
	ctx := context.Background()
	var out []decompCase
	add := func(name string, g *graph.Graph, d *Decomposition, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, decompCase{name, g, d})
	}
	rng := rand.New(rand.NewSource(7))
	for i, g := range []*graph.Graph{
		graphgen.Path(40),
		graphgen.Cycle(25),
		graphgen.Grid(4, 6),
		graphgen.RandomConnected(30, 20, rng),
	} {
		d, _, _, err := MinFillCtx(ctx, g)
		add(fmt.Sprintf("min-fill-%d", i), g, d, err)
		d, _, _, err = MinDegreeCtx(ctx, g)
		add(fmt.Sprintf("min-degree-%d", i), g, d, err)
	}
	for trial := 0; trial < 8; trial++ {
		g := graphgen.RandomConnected(6+rng.Intn(9), rng.Intn(10), rng)
		_, d, err := ExactCtx(ctx, g)
		add(fmt.Sprintf("exact-%d", trial), g, d, err)
	}
	for _, k := range []int{1, 2, 3} {
		g, attach := graphgen.KTree(20, k, rng)
		d, err := FromKTree(g.N(), k, attach)
		add(fmt.Sprintf("ktree-%d", k), g, d, err)
		g, attach = graphgen.PartialKTree(40, k, 0.4, rng)
		d, err = FromKTree(g.N(), k, attach)
		add(fmt.Sprintf("partial-ktree-%d", k), g, d, err)
	}
	for _, n := range []int{300, 2_000} {
		g, _ := graphgen.PartialKTree(n, 4, 0.85, rand.New(rand.NewSource(int64(n))))
		d, _, err := HeuristicCtx(ctx, g)
		add(fmt.Sprintf("heuristic-%d", n), g, d, err)
	}
	for _, k := range []int{2, 5} {
		g, d := bookGraph(k)
		add(fmt.Sprintf("book-%d", k), g, d, nil)
	}
	add("single-vertex", graph.New(1), &Decomposition{Bags: [][]int{{0}}, Adj: [][]int{nil}}, nil)
	return out
}

// corruptionKinds are the single defects TestValidateMatchesReference
// and FuzzValidate's seeds apply: each takes a clone and reports whether
// it found a place to apply the defect.
var corruptionKinds = []struct {
	name  string
	apply func(rng *rand.Rand, g *graph.Graph, d *Decomposition) bool
}{
	{"drop-vertex", func(rng *rand.Rand, g *graph.Graph, d *Decomposition) bool {
		b := rng.Intn(len(d.Bags))
		if len(d.Bags[b]) == 0 {
			return false
		}
		d.Bags[b] = slices.Delete(d.Bags[b], 0, 1)
		return true
	}},
	{"split-trace", func(rng *rand.Rand, g *graph.Graph, d *Decomposition) bool {
		return splitTrace(g, d)
	}},
	{"delete-tree-edge", func(rng *rand.Rand, g *graph.Graph, d *Decomposition) bool {
		b, c, ok := someTreeEdge(rng, d)
		if ok {
			d.Adj[b] = withoutInt(d.Adj[b], c)
			d.Adj[c] = withoutInt(d.Adj[c], b)
		}
		return ok
	}},
	{"duplicate-tree-edge", func(rng *rand.Rand, g *graph.Graph, d *Decomposition) bool {
		b, c, ok := someTreeEdge(rng, d)
		if ok {
			d.Adj[b] = append(d.Adj[b], c)
			d.Adj[c] = append(d.Adj[c], b)
		}
		return ok
	}},
	{"one-sided-tree-edge", func(rng *rand.Rand, g *graph.Graph, d *Decomposition) bool {
		b, c, ok := someTreeEdge(rng, d)
		if ok {
			d.Adj[b] = withoutInt(d.Adj[b], c)
		}
		return ok
	}},
	{"cycle-tree-edge", func(rng *rand.Rand, g *graph.Graph, d *Decomposition) bool {
		for tries := 0; tries < 20 && len(d.Bags) > 2; tries++ {
			b, c := rng.Intn(len(d.Bags)), rng.Intn(len(d.Bags))
			if b != c && !containsInt(d.Adj[b], c) {
				d.Adj[b] = append(d.Adj[b], c)
				d.Adj[c] = append(d.Adj[c], b)
				return true
			}
		}
		return false
	}},
	{"unsorted-bag", func(rng *rand.Rand, g *graph.Graph, d *Decomposition) bool {
		for tries := 0; tries < 20; tries++ {
			if bag := d.Bags[rng.Intn(len(d.Bags))]; len(bag) >= 2 {
				i := rng.Intn(len(bag) - 1)
				bag[i], bag[i+1] = bag[i+1], bag[i]
				return true
			}
		}
		return false
	}},
	{"bag-entry-out-of-range", func(rng *rand.Rand, g *graph.Graph, d *Decomposition) bool {
		b := rng.Intn(len(d.Bags))
		d.Bags[b] = append(d.Bags[b], g.N())
		return true
	}},
	{"tree-entry-out-of-range", func(rng *rand.Rand, g *graph.Graph, d *Decomposition) bool {
		b := rng.Intn(len(d.Bags))
		d.Adj[b] = append(d.Adj[b], len(d.Bags))
		return true
	}},
}

// someTreeEdge picks a random tree edge (b, c), when the tree has one.
func someTreeEdge(rng *rand.Rand, d *Decomposition) (int, int, bool) {
	for tries := 0; tries < 20; tries++ {
		b := rng.Intn(len(d.Bags))
		if len(d.Adj[b]) > 0 {
			return b, d.Adj[b][rng.Intn(len(d.Adj[b]))], true
		}
	}
	return 0, 0, false
}

// sameVerdict fails the test when the linear validator and the
// reference disagree on whether d is a valid decomposition of g.
func sameVerdict(t *testing.T, name string, g *graph.Graph, d *Decomposition) {
	t.Helper()
	got, want := Validate(g, d), validateReference(g, d)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: Validate says %v, reference says %v", name, got, want)
	}
}

// TestValidateMatchesReference checks the linear validator against the
// original checker on every corpus decomposition and on single
// corruptions of each: both must agree on nil versus non-nil.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range decompCorpus(t) {
		if err := Validate(c.g, c.d); err != nil {
			t.Fatalf("%s: valid decomposition rejected: %v", c.name, err)
		}
		sameVerdict(t, c.name, c.g, c.d)
		for _, k := range corruptionKinds {
			for rep := 0; rep < 3; rep++ {
				bad := c.d.Clone()
				if k.apply(rng, c.g, bad) {
					sameVerdict(t, c.name+"/"+k.name, c.g, bad)
				}
			}
		}
	}
}

// TestMakeNiceMatchesReference checks that the arena-built nice
// conversion reproduces the original recursive one node for node, in
// the same index order, with exactly sized arenas: kinds, vertices, bags
// and children read through Nice's accessors, each node's position
// checked against the bag it indexes, and the forget count the DP sizes
// its table list from.
func TestMakeNiceMatchesReference(t *testing.T) {
	for _, c := range decompCorpus(t) {
		for _, root := range []int{0, len(c.d.Bags) - 1} {
			got, err := MakeNiceCtx(context.Background(), c.d, root)
			if err != nil {
				t.Fatalf("%s root %d: %v", c.name, root, err)
			}
			want, err := makeNiceReference(c.d, root)
			if err != nil {
				t.Fatal(err)
			}
			if got.Root != want.Root || got.Width() != want.width || got.NumNodes() != len(want.Nodes) {
				t.Fatalf("%s root %d: root/width/nodes %d/%d/%d, want %d/%d/%d", c.name, root,
					got.Root, got.Width(), got.NumNodes(), want.Root, want.width, len(want.Nodes))
			}
			if cap(got.Nodes) != len(got.Nodes) || cap(got.bags) != len(got.bags) {
				t.Fatalf("%s root %d: %d nodes and %d bag entries in slices sized for %d and %d",
					c.name, root, len(got.Nodes), len(got.bags), cap(got.Nodes), cap(got.bags))
			}
			forgets := 0
			for i, nd := range got.Nodes {
				w := want.Nodes[i]
				kids := []int{}
				for _, k := range nd.Child {
					if k >= 0 {
						kids = append(kids, int(k))
					}
				}
				if nd.Kind != w.Kind || int(nd.Vertex) != w.Vertex || !slices.Equal(bagInts(got, i), w.Bag) ||
					!slices.Equal(kids, w.Children) || nd.Child[0] < 0 && nd.Child[1] >= 0 {
					t.Fatalf("%s root %d: node %d is %+v with bag %v, want %+v", c.name, root, i, nd, got.Bag(i), w)
				}
				// Pos indexes the bag the DP reads: an introduce node's
				// own, a forget node's child's.
				switch nd.Kind {
				case KindIntroduce:
					if bag := got.Bag(i); nd.Pos < 0 || int(nd.Pos) >= len(bag) || bag[nd.Pos] != nd.Vertex {
						t.Fatalf("%s root %d: introduce node %d of %d at position %d of %v", c.name, root, i, nd.Vertex, nd.Pos, bag)
					}
				case KindForget:
					forgets++
					if bag := got.Bag(int(nd.Child[0])); nd.Pos < 0 || int(nd.Pos) >= len(bag) || bag[nd.Pos] != nd.Vertex {
						t.Fatalf("%s root %d: forget node %d of %d at position %d of child bag %v", c.name, root, i, nd.Vertex, nd.Pos, bag)
					}
				default:
					if nd.Pos != -1 {
						t.Fatalf("%s root %d: %v node %d has position %d", c.name, root, nd.Kind, i, nd.Pos)
					}
				}
			}
			if got.forgets != forgets {
				t.Fatalf("%s root %d: %d forget nodes counted as %d", c.name, root, forgets, got.forgets)
			}
		}
	}
}

// fuzzReader hands out the fuzz input a byte at a time, zero once it is
// exhausted.
type fuzzReader []byte

func (r *fuzzReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeValidateInput decodes a small (g, d) pair: n = 1+b%12 vertices,
// nb = 1+b%16 bags, one bit per vertex pair for the edges (9 bytes),
// then per bag a size b%8 and that many entries b%16-1, then per bag a
// tree-list size b%8 and that many entries b%18-1. Every size is bounded
// before anything is allocated, and entries may fall out of range.
func decodeValidateInput(data []byte) (*graph.Graph, *Decomposition) {
	r := fuzzReader(data)
	n, nb := 1+r.next()%12, 1+r.next()%16
	g := graph.New(n)
	var pairs [9]int
	for i := range pairs {
		pairs[i] = r.next()
	}
	bit := 0
	for u := 0; u < n; u++ {
		for w := u + 1; w < n; w++ {
			if pairs[bit/8]>>(bit%8)&1 == 1 {
				g.MustAddEdge(u, w)
			}
			bit++
		}
	}
	d := &Decomposition{Bags: make([][]int, nb), Adj: make([][]int, nb)}
	for b := range d.Bags {
		for k := r.next() % 8; k > 0; k-- {
			d.Bags[b] = append(d.Bags[b], r.next()%16-1)
		}
	}
	for b := range d.Adj {
		for k := r.next() % 8; k > 0; k-- {
			d.Adj[b] = append(d.Adj[b], r.next()%18-1)
		}
	}
	return g, d
}

// encodeValidateInput is decodeValidateInput's inverse for pairs inside
// its bounds (the fuzz seeds).
func encodeValidateInput(g *graph.Graph, d *Decomposition) []byte {
	out := []byte{byte(g.N() - 1), byte(len(d.Bags) - 1)}
	var pairs [9]byte
	bit := 0
	for u := 0; u < g.N(); u++ {
		for w := u + 1; w < g.N(); w++ {
			if g.HasEdge(u, w) {
				pairs[bit/8] |= 1 << (bit % 8)
			}
			bit++
		}
	}
	out = append(out, pairs[:]...)
	for _, lists := range [][][]int{d.Bags, d.Adj} {
		for _, l := range lists {
			out = append(out, byte(len(l)))
			for _, x := range l {
				out = append(out, byte(x+1))
			}
		}
	}
	return out
}

// FuzzValidate compares the linear validator's verdict with the
// reference checker's on small decoded (graph, decomposition) pairs. The
// seeds are valid decompositions of small graphs and one case of each
// corruption kind.
func FuzzValidate(f *testing.F) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	var seeds []decompCase
	for _, g := range []*graph.Graph{graphgen.Path(6), graphgen.Cycle(7), graphgen.Grid(3, 3), graphgen.Star(5)} {
		d, _, _, err := MinFillCtx(ctx, g)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, decompCase{"", g, d})
	}
	g, attach := graphgen.PartialKTree(11, 2, 0.6, rng)
	d, err := FromKTree(g.N(), 2, attach)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, decompCase{"", g, d})
	for _, s := range seeds {
		f.Add(encodeValidateInput(s.g, s.d))
	}
	for i, k := range corruptionKinds {
		s := seeds[i%len(seeds)]
		bad := s.d.Clone()
		if k.apply(rng, s.g, bad) {
			f.Add(encodeValidateInput(s.g, bad))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, d := decodeValidateInput(data)
		sameVerdict(t, "fuzz", g, d)
	})
}
