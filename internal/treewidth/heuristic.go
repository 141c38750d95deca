package treewidth

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/fault"
	"repro/internal/graph"
)

// MaxDenseVertices bounds the dense bitset engine, whose adjacency rows
// take n²/8 bytes and whose selection scans every remaining vertex each
// round. It is no longer a cap on the heuristics — graphs that are too
// big (or too sparse) for the bitset engine run on the sparse
// sorted-slice engine (see sparse.go), which has no size limit.
const MaxDenseVertices = 1 << 13

// useBitset picks the elimination engine: the dense bitset rows win on
// small or dense graphs (word-parallel scans, no per-insert memmoves),
// the sparse engine everywhere else — and is the only option above
// MaxDenseVertices. BenchmarkEliminationEngines measures both engines on
// exactly the inputs this rule sends to the bitset side, and the bitset
// engine wins every one (2-vCPU Xeon, go1.24, medians of 5 runs): 130µs
// vs 171µs for the min-fill plus min-degree contest on a partial 2-tree
// at n=128, 146µs vs 364µs on a partial 4-tree at n=128, 15ms vs 199ms
// for min-degree on G(500, 0.05). So both engines stay. The rule is
// deterministic, so the engine choice — and with it the (identical)
// elimination order — is reproducible.
func useBitset(g *graph.Graph) bool {
	n := g.N()
	if n > MaxDenseVertices {
		return false
	}
	// Average degree at least n/32, or tiny: elimination fills
	// neighbourhoods toward n, where bitset rows dominate.
	return n <= 128 || 64*g.M() >= n*n
}

// elimBits is the working state of the elimination heuristics: adjacency
// as bitset rows (one word-packed row per vertex, eliminated vertices
// cleared out), plus incrementally maintained degree and fill-in counts.
// Keeping the counts current under elimination — instead of recounting
// missing neighbour pairs per candidate per round, as the map-based
// reference implementation in the tests does — is what turns min-fill from
// cubic-ish into roughly quadratic: each round pays one O(n) selection
// scan plus bitset work proportional to the eliminated vertex's
// neighbourhood.
type elimBits struct {
	n     int
	words int
	rows  []uint64 // n rows of `words` words each
	alive []bool
	deg   []int // current neighbour count
	fill  []int // current missing-pair count among the neighbours
	// counts gates the fill-in maintenance: min-fill needs it, but
	// min-degree reads only degrees and a pure elimination replay
	// (fromEliminationOrder) only bags, so both skip the initial
	// intersections and the per-fill-edge row scans entirely.
	counts bool
	left   int
}

func newElimBits(g *graph.Graph, counts bool) *elimBits {
	n := g.N()
	st := &elimBits{
		n:      n,
		words:  (n + 63) / 64,
		alive:  make([]bool, n),
		deg:    make([]int, n),
		counts: counts,
		left:   n,
	}
	st.rows = make([]uint64, n*st.words)
	for v := 0; v < n; v++ {
		st.alive[v] = true
		st.deg[v] = g.Degree(v)
		row := st.row(v)
		for _, w := range g.Neighbors(v) {
			row[w>>6] |= 1 << uint(w&63)
		}
	}
	if !counts {
		return st
	}
	// Initial fill-in counts: missing pairs among N(v) = all pairs minus
	// the edges inside N(v), counted via row intersections.
	st.fill = make([]int, n)
	for v := 0; v < n; v++ {
		row := st.row(v)
		inside := 0
		for _, w := range g.Neighbors(v) {
			inside += intersectCount(row, st.row(int(w)))
		}
		d := st.deg[v]
		st.fill[v] = d*(d-1)/2 - inside/2
	}
	return st
}

func (st *elimBits) row(v int) []uint64 {
	return st.rows[v*st.words : (v+1)*st.words]
}

// intersectCount returns |a ∩ b| for two rows.
func intersectCount(a, b []uint64) int {
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w & b[i])
	}
	return c
}

// diffCount returns |a \ b| for two rows.
func diffCount(a, b []uint64) int {
	c := 0
	for i, w := range a {
		c += bits.OnesCount64(w &^ b[i])
	}
	return c
}

// appendMembers appends the set bits of a row to buf as vertex indices.
func appendMembers(buf []int, row []uint64) []int {
	for i, w := range row {
		base := i << 6
		for w != 0 {
			buf = append(buf, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return buf
}

// eliminate removes v, cliquing its remaining neighbours and keeping every
// degree and fill-in count exact, and returns v's degree at elimination
// time (the bag size minus one). nbrs is scratch for the neighbour list.
func (st *elimBits) eliminate(v int, nbrs []int) ([]int, int) {
	nbrs = appendMembers(nbrs[:0], st.row(v))
	vRow := st.row(v)
	// Add the missing fill edges among N(v), updating counts as each edge
	// lands so later pairs see the current adjacency:
	//   - every live vertex adjacent to both endpoints had the pair in its
	//     neighbourhood's missing set — one fewer missing pair now;
	//   - each endpoint gains the other as a neighbour, adding a missing
	//     pair for every neighbour the other endpoint is not adjacent to.
	for i := 0; i < len(nbrs); i++ {
		a := nbrs[i]
		aRow := st.row(a)
		for j := i + 1; j < len(nbrs); j++ {
			b := nbrs[j]
			if aRow[b>>6]>>(uint(b)&63)&1 == 1 {
				continue
			}
			bRow := st.row(b)
			if st.counts {
				for wi := 0; wi < st.words; wi++ {
					common := aRow[wi] & bRow[wi]
					base := wi << 6
					for common != 0 {
						x := base + bits.TrailingZeros64(common)
						common &= common - 1
						if x != v {
							st.fill[x]--
						}
					}
				}
				st.fill[a] += diffCount(aRow, bRow)
				st.fill[b] += diffCount(bRow, aRow)
			}
			aRow[b>>6] |= 1 << uint(b&63)
			bRow[a>>6] |= 1 << uint(a&63)
			st.deg[a]++
			st.deg[b]++
		}
	}
	// Detach v: each neighbour loses the pairs {v, y} with y a neighbour
	// it shares with nobody — after the cliquing above, exactly its
	// neighbours outside N(v) ∪ {v}.
	for _, w := range nbrs {
		wRow := st.row(w)
		if st.counts {
			st.fill[w] -= diffCount(wRow, vRow) - 1
		}
		wRow[v>>6] &^= 1 << uint(v&63)
		st.deg[w]--
	}
	st.alive[v] = false
	st.left--
	return nbrs, len(nbrs)
}

// heuristicScore selects what the elimination greedily minimizes.
type heuristicScore int

const (
	scoreDegree heuristicScore = iota
	scoreFill
)

// runHeuristic eliminates every vertex of g in the order chosen by the
// score (smallest score wins, lowest index breaks ties — deterministic),
// appends the order and the bags to b during that single pass, and
// returns the realized width. The per-round checkpoint makes long
// eliminations cancellable: a round is O(n)-ish, so the amortized probe
// adds nothing measurable while bounding the reaction time to a few
// thousand rounds.
//
//certlint:longrun
func runHeuristic(ctx context.Context, g *graph.Graph, score heuristicScore, b *decompBuilder) (int, error) {
	st := newElimBits(g, score == scoreFill)
	n := g.N()
	nbrs := make([]int, 0, n)
	width := 0
	vals := st.deg
	if score == scoreFill {
		vals = st.fill
	}
	cp := fault.NewCheckpoint(ctx, "decompose")
	for st.left > 0 {
		if err := cp.Check(); err != nil {
			return 0, err
		}
		best, bestScore := -1, 0
		for v := 0; v < n; v++ {
			if !st.alive[v] {
				continue
			}
			if s := vals[v]; best == -1 || s < bestScore {
				best, bestScore = v, s
			}
		}
		b.closeBag(best, appendMembers(b.newBag(st.deg[best]+1), st.row(best)))
		var d int
		nbrs, d = st.eliminate(best, nbrs)
		if d > width {
			width = d
		}
	}
	return width, nil
}

// runEngine appends one greedy elimination run of g to b on the engine
// that fits the graph and returns its width; both engines produce
// identical orders, bags and widths (pinned by differential tests), so
// the choice is purely a performance decision.
func runEngine(ctx context.Context, g *graph.Graph, score heuristicScore, b *decompBuilder) (int, error) {
	if useBitset(g) {
		return runHeuristic(ctx, g, score, b)
	}
	return runSparse(ctx, g, score, false, b)
}

// minScoreDecomp runs one greedy elimination of g and returns the
// induced decomposition, the elimination order, and the realized width.
func minScoreDecomp(ctx context.Context, g *graph.Graph, score heuristicScore) (*Decomposition, []int, int, error) {
	n := g.N()
	b := newDecompBuilder(n, g.M())
	width, err := runEngine(ctx, g, score, b)
	if err != nil {
		return nil, nil, 0, err
	}
	b.link(0, n, make([]int32, n))
	order := make([]int, n)
	for i, v := range b.order {
		order[i] = int(v)
	}
	return b.finish(), order, width, nil
}

// MinDegreeCtx runs the minimum-degree elimination heuristic and returns
// the induced decomposition, the elimination order, and the realized
// width. The elimination loop checkpoints the context and returns a
// *fault.CancelledError once it is done.
func MinDegreeCtx(ctx context.Context, g *graph.Graph) (*Decomposition, []int, int, error) {
	if err := checkHeuristicInput(g); err != nil {
		return nil, nil, 0, err
	}
	return minScoreDecomp(ctx, g, scoreDegree)
}

// MinFillCtx runs the minimum-fill-in elimination heuristic, as
// MinDegreeCtx.
func MinFillCtx(ctx context.Context, g *graph.Graph) (*Decomposition, []int, int, error) {
	if err := checkHeuristicInput(g); err != nil {
		return nil, nil, 0, err
	}
	return minScoreDecomp(ctx, g, scoreFill)
}

// blockSplitThreshold is the size above which HeuristicCtx splits the
// graph into its biconnected blocks and decomposes them one by one;
// smaller graphs are eliminated whole.
const blockSplitThreshold = 1 << 12

// HeuristicCtx runs the elimination heuristics and returns the narrower
// decomposition together with the name of the winning method. Graphs
// above blockSplitThreshold vertices are split into biconnected blocks
// first, and the min-fill vs min-degree contest (blockContest) runs
// block by block (see decomposeBlocks); smaller graphs run it whole.
// The context reaches the block split and every elimination engine.
func HeuristicCtx(ctx context.Context, g *graph.Graph) (*Decomposition, string, error) {
	if err := checkHeuristicInput(g); err != nil {
		return nil, "", err
	}
	n := g.N()
	if n <= blockSplitThreshold {
		whole := make([]int, n)
		for v := range whole {
			whole[v] = v
		}
		return decomposeBlocks(ctx, g, [][]int{whole})
	}
	cp := fault.NewCheckpoint(ctx, "decompose")
	blocks, err := g.BiconnectedComponentsCp(&cp)
	if err != nil {
		return nil, "", err
	}
	return decomposeBlocks(ctx, g, blocks)
}

// Degeneracy returns the graph's degeneracy (the max over the elimination
// of always removing a minimum-degree vertex, without fill edges) — a
// cheap lower bound on treewidth used by the exact solver. A bucket
// queue over the sorted rows makes the peeling O(n+m); the result is a
// graph invariant, so the order vertices leave their buckets in does not
// affect it.
func Degeneracy(g *graph.Graph) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	deg := make([]int, n)
	alive := make([]bool, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(v)
		alive[v] = true
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// buckets[d] holds vertices that entered with degree d; entries go
	// stale when a degree drops, so each pop revalidates against deg.
	buckets := make([][]int32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], int32(v))
	}
	degen := 0
	cur := 0
	for left := n; left > 0; {
		for cur <= maxDeg && len(buckets[cur]) == 0 {
			cur++
		}
		b := buckets[cur]
		v := int(b[len(b)-1])
		buckets[cur] = b[:len(b)-1]
		if !alive[v] || deg[v] != cur {
			continue // stale entry; the vertex re-entered a lower bucket
		}
		if cur > degen {
			degen = cur
		}
		alive[v] = false
		left--
		for _, w := range g.Neighbors(v) {
			if alive[w] {
				deg[w]--
				buckets[deg[w]] = append(buckets[deg[w]], w)
				if deg[w] < cur {
					cur = deg[w]
				}
			}
		}
	}
	return degen
}

func checkHeuristicInput(g *graph.Graph) error {
	if g.N() == 0 {
		return fmt.Errorf("treewidth: empty graph")
	}
	return nil
}
