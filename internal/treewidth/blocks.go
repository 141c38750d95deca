package treewidth

import (
	"context"
	"sort"

	"repro/internal/fault"
	"repro/internal/graph"
)

// largeBlockMinDegreeOnly is the block size above which the per-block
// contest drops min-fill and runs min-degree alone. Only min-fill pays
// for fill-in counts: on a partial 4-tree of 2¹⁵ vertices (2-vCPU Xeon,
// go1.24) min-fill takes ~375ms and min-degree ~74ms, so the contest
// would cost six times min-degree alone, for a width win that the
// tree-like inputs this path exists for (partial k-trees) do not show —
// both land at width 5 there.
const largeBlockMinDegreeOnly = 1 << 15

// decomposeBlocks decomposes g piece by piece into one decomposition
// builder. The pieces are blocks, each ascending, as
// BiconnectedComponents returns them, then one per isolated vertex
// (treewidth is the maximum over blocks, since blocks overlap in at most
// one vertex). A block that spans g (HeuristicCtx passes every graph it
// does not split as one) is eliminated on g itself; any other is copied
// out first and its bags are renamed to g's vertices in place. The
// pieces are joined into one tree in three kinds of edges, recorded in
// this order:
//
//   - each block's elimination tree (decompBuilder.link);
//   - glue at cut vertices: the first bag of a block holding a vertex
//     already in an earlier block joins the latest bag holding it, so
//     every trace stays a connected subtree and the glue edges recreate
//     the block-cut tree;
//   - component chaining: the first piece of every connected component
//     but the first hangs off bag 0 by a vertex-free tree edge, as a
//     disconnected elimination run chains onto its next bag.
//
// The method is the contest's winner when one block spans g, and
// "blocks" otherwise. The context reaches every block's copy and
// elimination.
//
//certlint:longrun
func decomposeBlocks(ctx context.Context, g *graph.Graph, blocks [][]int) (*Decomposition, string, error) {
	n := g.N()
	cp := fault.NewCheckpoint(ctx, "decompose")
	// Size the builder once: a block of k vertices takes k bags, and an
	// isolated vertex one.
	nb, biggest := 0, 0
	for _, block := range blocks {
		if err := cp.Check(); err != nil {
			return nil, "", err
		}
		nb, biggest = nb+len(block), max(biggest, len(block))
	}
	// Isolated vertices lie in no block, unless one block spans g.
	var isolated []int
	if len(blocks) != 1 || len(blocks[0]) < n {
		for v := 0; v < n; v++ {
			if err := cp.Check(); err != nil {
				return nil, "", err
			}
			if g.Degree(v) == 0 {
				isolated = append(isolated, v)
			}
		}
	}
	nb += len(isolated)
	b := newDecompBuilder(nb, g.M())

	// local is the block copy's index scratch and pos the linking's;
	// anchor[v] is one plus the latest bag holding v, 0 before the first;
	// comp is a union-find over the blocks whose roots are the first block
	// of their component, and start is each block's first bag.
	var local, anchor []int32
	pos := make([]int32, biggest)
	comp, start := make([]int32, len(blocks)), make([]int, len(blocks))
	find := func(p int32) int32 {
		for comp[p] != p {
			comp[p] = comp[comp[p]]
			p = comp[p]
		}
		return p
	}
	method := "blocks"
	for p, block := range blocks {
		if err := cp.Now(); err != nil {
			return nil, "", err
		}
		sub := g
		if len(block) < n {
			if local == nil {
				local, anchor = make([]int32, n), make([]int32, n)
				for v := range local {
					local[v] = -1
				}
			}
			var err error
			if sub, err = g.InducedSortedCp(&cp, block, local); err != nil {
				return nil, "", err
			}
		}
		lo := len(b.bags)
		won, err := blockContest(ctx, sub, b, pos)
		if err != nil {
			return nil, "", err
		}
		comp[p], start[p] = int32(p), lo
		if len(block) == n {
			method = won
			continue
		}
		// Rename the bags to g's vertices in place. A vertex first met in
		// an earlier block glues this bag to its latest bag there, which
		// joins the two blocks' components.
		for bi, bag := range b.bags[lo:] {
			bi += lo
			for k, v := range bag {
				v = block[v]
				bag[k] = v
				if a := int(anchor[v]); a <= lo {
					if a > 0 {
						b.edges = append(b.edges, int32(a-1), int32(bi))
						q, r := find(int32(sort.SearchInts(start[:p], a)-1)), find(int32(p))
						comp[max(q, r)] = min(q, r)
					}
					anchor[v] = int32(bi + 1)
				}
			}
		}
	}
	for p := 1; p < len(blocks); p++ {
		if err := cp.Check(); err != nil {
			return nil, "", err
		}
		if find(int32(p)) == int32(p) {
			b.edges = append(b.edges, 0, int32(start[p]))
		}
	}
	for _, v := range isolated {
		if err := cp.Check(); err != nil {
			return nil, "", err
		}
		if i := len(b.bags); i > 0 {
			b.edges = append(b.edges, 0, int32(i))
		}
		b.closeBag(v, b.newBag(1))
	}
	return b.finish(), method, nil
}

// blockContest runs the heuristic contest on g into b — min-fill vs
// min-degree with min-fill winning ties, except that graphs above
// largeBlockMinDegreeOnly run min-degree alone — keeps the winning run,
// links it and names it. pos is scratch of at least g.N() entries.
func blockContest(ctx context.Context, g *graph.Graph, b *decompBuilder, pos []int32) (string, error) {
	lo, atLo := len(b.bags), b.verts
	method := "min-degree"
	if g.N() > largeBlockMinDegreeOnly {
		if _, err := runEngine(ctx, g, scoreDegree, b); err != nil {
			return "", err
		}
	} else {
		wf, err := runEngine(ctx, g, scoreFill, b)
		if err != nil {
			return "", err
		}
		// Min-degree runs into a builder of its own, so that b holds only
		// the run it keeps: when min-degree wins, its bags are copied
		// over min-fill's, entries included.
		deg := newDecompBuilder(g.N(), g.M())
		wd, err := runEngine(ctx, g, scoreDegree, deg)
		if err != nil {
			return "", err
		}
		if wd < wf {
			b.order, b.bags, b.verts = append(b.order[:lo], deg.order...), b.bags[:lo], atLo
			for _, bag := range deg.bags {
				b.bags = append(b.bags, append(b.newBag(len(bag)), bag...))
				b.verts = b.verts[:len(b.verts)+len(bag)]
			}
		} else {
			method = "min-fill"
		}
	}
	b.link(lo, len(b.bags), pos)
	return method, nil
}
