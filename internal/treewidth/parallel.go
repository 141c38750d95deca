package treewidth

import (
	"context"
	"runtime"
	"sync"

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

// heuristicParallel decomposes g by structural decomposition first: the
// graph splits into connected components and, within them, biconnected
// blocks (treewidth is the maximum over blocks, since blocks overlap in
// at most one vertex). Each block is decomposed independently over a
// bounded worker pool — the netsim shard discipline: a fixed number of
// workers pulling tasks, never a goroutine per block — and the block
// decompositions are glued back into one valid decomposition of g:
// blocks sharing a cut vertex connect at bags containing it (keeping
// every vertex trace a connected subtree), components chain through
// vertex-free tree edges exactly like the sequential elimination
// linker does for disconnected inputs.
//
// g must be non-empty (HeuristicCtx checks). workers <= 0 means
// GOMAXPROCS; HeuristicCtx always passes 0, and only tests vary it. The
// result is deterministic: task results are indexed, not raced. The
// context reaches the block split, every block's subgraph copy and
// elimination engine, and workers stop pulling tasks once it is done,
// so cancelling a million-vertex decomposition frees the whole pool
// within one checkpoint stride.
func heuristicParallel(ctx context.Context, g *graph.Graph, workers int) (*Decomposition, string, error) {
	n := g.N()
	cp := fault.NewCheckpoint(ctx, "decompose")
	blocks, err := g.BiconnectedComponentsCp(&cp)
	if err != nil {
		return nil, "", err
	}

	// One block covering the whole graph (g biconnected, e.g. a pure
	// k-tree): no parallel structure to exploit, run directly and skip
	// the subgraph copy.
	if len(blocks) == 1 && len(blocks[0]) == n {
		return blockContest(ctx, g)
	}

	// Pieces: one per block plus one per isolated vertex. Piece i owns
	// blocks[i]; singletons follow.
	type piece struct {
		verts []int          // sorted global vertex indices
		d     *Decomposition // bags in global indices after the task runs
	}
	pieces := make([]piece, 0, len(blocks)+4)
	for _, b := range blocks {
		pieces = append(pieces, piece{verts: b})
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) == 0 {
			pieces = append(pieces, piece{
				verts: []int{v},
				d:     &Decomposition{Bags: [][]int{{v}}, Adj: [][]int{nil}},
			})
		}
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(blocks) {
		workers = len(blocks)
	}
	if workers < 1 {
		workers = 1
	}
	tasks := make(chan int)
	errs := make([]error, len(blocks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp := fault.NewCheckpoint(ctx, "decompose")
			// One global-to-local index per worker, reset entry by entry
			// after each block, instead of one map per block.
			local := make([]int32, n)
			for i := range local {
				local[i] = -1
			}
			for ti := range tasks {
				if err := cp.Now(); err != nil {
					errs[ti] = err
					continue
				}
				d, err := decomposeBlock(ctx, g, pieces[ti].verts, local)
				if err != nil {
					errs[ti] = err
					continue
				}
				pieces[ti].d = d
			}
		}()
	}
	for ti := range blocks {
		tasks <- ti
	}
	close(tasks)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, "", err
		}
	}

	// Assemble: concatenate piece decompositions with offset bag indices.
	// The pieces are this call's own, so their tree rows are shifted in
	// place.
	total := 0
	for i := range pieces {
		total += len(pieces[i].d.Bags)
	}
	out := &Decomposition{Bags: make([][]int, 0, total), Adj: make([][]int, 0, total)}
	offset := make([]int, len(pieces))
	for i := range pieces {
		offset[i] = len(out.Bags)
		d := pieces[i].d
		out.Bags = append(out.Bags, d.Bags...)
		for _, adj := range d.Adj {
			for k := range adj {
				adj[k] += offset[i]
			}
		}
		out.Adj = append(out.Adj, d.Adj...)
	}

	// Glue at cut vertices: for every vertex in more than one piece,
	// star-connect one v-containing bag per piece. Distinct blocks share
	// at most one vertex, so these edges recreate the block-cut tree:
	// per component exactly (#pieces - 1) edges, no cycles, and every
	// glue edge joins two bags containing v — the traces stay connected.
	anchor := make([]int, n) // per vertex: a global bag index containing it, -1 if unseen
	for v := range anchor {
		anchor[v] = -1
	}
	link := func(a, b int) {
		out.Adj[a] = append(out.Adj[a], b)
		out.Adj[b] = append(out.Adj[b], a)
	}
	for i := range pieces {
		d := pieces[i].d
		// firstBag: this piece's first bag containing each of its shared
		// vertices; scanning bags in order keeps the choice deterministic.
		for bi, bag := range d.Bags {
			for _, v := range bag {
				if anchor[v] == -1 {
					anchor[v] = bi + offset[i]
				} else if anchor[v] < offset[i] {
					// v was anchored by an earlier piece: glue once per
					// (piece, cut vertex) pair, then move the anchor into
					// this piece so later bags of the same piece don't
					// re-glue.
					link(anchor[v], bi+offset[i])
					anchor[v] = bi + offset[i]
				}
			}
		}
	}

	// Chain components: pieces whose vertices connect to nothing glued so
	// far need a vertex-free tree edge, exactly like the sequential
	// linker's next-bag rule for disconnected graphs. A BFS over the bag
	// tree finds the pieces already reachable from bag 0; every
	// unreached piece root chains onto bag 0's tree.
	if len(out.Bags) > 0 {
		seen := make([]bool, len(out.Bags))
		stack := make([]int, 0, len(out.Bags))
		mark := func(start int) {
			stack = append(stack[:0], start)
			seen[start] = true
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, nb := range out.Adj[b] {
					if !seen[nb] {
						seen[nb] = true
						stack = append(stack, nb)
					}
				}
			}
		}
		mark(0)
		for i := range pieces {
			root := offset[i]
			if !seen[root] {
				link(0, root)
				mark(root)
			}
		}
	}
	return out, "parallel", nil
}

// decomposeBlock builds the induced subgraph of one biconnected block
// (block sorted ascending) straight from g's rows in one pass
// (graph.InducedSortedCp, through the worker's index scratch local),
// runs the heuristic contest on it, and maps the bags back to global
// vertex indices.
func decomposeBlock(ctx context.Context, g *graph.Graph, block []int, local []int32) (*Decomposition, error) {
	// The induced-subgraph copy of a near-spanning block is itself long
	// work at n=10⁵⁺, so it checkpoints like the elimination that follows.
	cp := fault.NewCheckpoint(ctx, "decompose")
	sub, err := g.InducedSortedCp(&cp, block, local)
	if err != nil {
		return nil, err
	}
	d, _, err := blockContest(ctx, sub)
	if err != nil {
		return nil, err
	}
	// Map bags to global indices; block is sorted, so bags stay sorted.
	for _, bag := range d.Bags {
		for k, v := range bag {
			bag[k] = block[v]
		}
	}
	return d, nil
}

// blockContest runs the heuristic contest on one (sub)graph: min-fill
// vs min-degree with min-fill winning ties, except that blocks above
// largeBlockMinDegreeOnly run min-degree alone.
func blockContest(ctx context.Context, g *graph.Graph) (*Decomposition, string, error) {
	if g.N() > largeBlockMinDegreeOnly {
		d, _, _, err := minScoreDecomp(ctx, g, scoreDegree)
		if err != nil {
			return nil, "", err
		}
		return d, "min-degree", nil
	}
	df, _, wf, err := minScoreDecomp(ctx, g, scoreFill)
	if err != nil {
		return nil, "", err
	}
	dd, _, wd, err := minScoreDecomp(ctx, g, scoreDegree)
	if err != nil {
		return nil, "", err
	}
	if wd < wf {
		return dd, "min-degree", nil
	}
	return df, "min-fill", nil
}
