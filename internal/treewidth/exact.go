package treewidth

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/fault"
	"repro/internal/graph"
)

// ExactLimit is the largest graph the exact solver accepts: eliminated
// vertex sets are 64-bit masks and the branch-and-bound over elimination
// orders is exponential in the worst case, so the practical range is a few
// dozen vertices.
const ExactLimit = 32

// maxExactSteps bounds the branch-and-bound's search-node expansions (and
// with them the memo size). The solver is served over HTTP (/decompose
// method=exact, the tw-mso prover fallback), so a hostile 32-vertex
// instance must fail fast with an error instead of pinning a CPU for
// minutes; every instance in the test and experiment suites finishes well
// under the cap.
const maxExactSteps = 2_000_000

// ExactCtx computes the exact treewidth of a graph (n <= ExactLimit) and
// an optimal tree decomposition. It branches over elimination orders with
// memoization on the eliminated vertex set — the elimination graph after
// removing a set is independent of the order within the set, so a set
// reached again with an equal-or-worse running width is pruned. The
// heuristic contest's decomposition seeds the upper bound and is returned
// as it is unless the search finds a narrower order, which is replayed;
// the degeneracy seeds the lower bound, and simplicial vertices are
// eliminated forcedly (a safe rule: eliminating a vertex whose remaining
// neighbourhood is a clique is always optimal). The branch-and-bound
// checkpoints the context on its step counter, so a doomed search stops
// within one checkpoint stride instead of running to the step cap.
func ExactCtx(ctx context.Context, g *graph.Graph) (int, *Decomposition, error) {
	n := g.N()
	if n == 0 {
		return 0, nil, fmt.Errorf("treewidth: empty graph")
	}
	if n > ExactLimit {
		return 0, nil, fmt.Errorf("treewidth: exact computation limited to %d vertices, got %d", ExactLimit, n)
	}
	b := newDecompBuilder(n, g.M())
	if _, err := blockContest(ctx, g, b, make([]int32, n)); err != nil {
		return 0, nil, err
	}
	d := b.finish()
	bestWidth := d.Width()
	lower := Degeneracy(g)
	if bestWidth > lower {
		s := &exactSolver{
			n:     n,
			best:  bestWidth,
			lower: lower,
			adj:   make([]uint64, n),
			memo:  map[uint64]int{},
			cp:    fault.NewCheckpoint(ctx, "decompose"),
		}
		for v := 0; v < n; v++ {
			for _, w := range g.Neighbors(v) {
				s.adj[v] |= 1 << uint(w)
			}
		}
		order := make([]int, 0, n)
		s.search(0, 0, order)
		if s.cancelled != nil {
			return 0, nil, s.cancelled
		}
		if s.steps > maxExactSteps {
			return 0, nil, fmt.Errorf("treewidth: exact search exceeded %d steps on n=%d (use the heuristics)",
				maxExactSteps, n)
		}
		if s.bestOrder != nil {
			bestWidth, d = s.best, fromEliminationOrder(g, s.bestOrder)
		}
	}
	return bestWidth, d, nil
}

type exactSolver struct {
	n         int
	adj       []uint64
	best      int   // incumbent width (strict upper bound for the search)
	lower     int   // global lower bound; reaching it stops the search
	bestOrder []int // order realizing best, nil while the incumbent stands
	memo      map[uint64]int
	steps     int // search-node expansions, checked against maxExactSteps
	cp        fault.Checkpoint
	cancelled error // first checkpoint error; the search unwinds once set
}

// elimNeighbors returns the neighbours of v in the elimination graph after
// removing the set S: the vertices outside S∪{v} reachable from v through
// S-internal paths.
func (s *exactSolver) elimNeighbors(v int, S uint64) uint64 {
	visited := uint64(1) << uint(v)
	frontier := visited
	out := uint64(0)
	for frontier != 0 {
		next := uint64(0)
		for m := frontier; m != 0; m &= m - 1 {
			u := bits.TrailingZeros64(m)
			next |= s.adj[u]
		}
		next &^= visited
		out |= next &^ S
		visited |= next
		frontier = next & S
	}
	return out &^ (1 << uint(v))
}

// search extends the elimination order from the eliminated set S with
// running width cur; it updates best/bestOrder when a full order beats the
// incumbent.
func (s *exactSolver) search(S uint64, cur int, order []int) {
	if cur >= s.best || s.best <= s.lower || s.cancelled != nil {
		return
	}
	s.steps++
	if s.steps > maxExactSteps {
		return
	}
	if err := s.cp.Check(); err != nil {
		s.cancelled = err
		return
	}
	if bits.OnesCount64(S) == s.n {
		s.best = cur
		s.bestOrder = append([]int(nil), order...)
		return
	}
	if prev, ok := s.memo[S]; ok && prev <= cur {
		return
	}
	s.memo[S] = cur

	// Remaining candidates with their elimination degree, cheapest first.
	type cand struct {
		v   int
		nbr uint64
		deg int
	}
	cands := make([]cand, 0, s.n)
	for v := 0; v < s.n; v++ {
		if S&(1<<uint(v)) != 0 {
			continue
		}
		nb := s.elimNeighbors(v, S)
		cands = append(cands, cand{v, nb, bits.OnesCount64(nb)})
	}
	// Safe reduction: a simplicial vertex (elimination neighbourhood is a
	// clique) can always be eliminated first.
	for _, c := range cands {
		if s.isClique(c.nbr, S) {
			w := cur
			if c.deg > w {
				w = c.deg
			}
			order = append(order, c.v)
			s.search(S|1<<uint(c.v), w, order)
			return
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].deg != cands[j].deg {
			return cands[i].deg < cands[j].deg
		}
		return cands[i].v < cands[j].v
	})
	for _, c := range cands {
		w := cur
		if c.deg > w {
			w = c.deg
		}
		if w >= s.best {
			continue
		}
		order = append(order, c.v)
		s.search(S|1<<uint(c.v), w, order)
		order = order[:len(order)-1]
	}
}

// isClique reports whether every pair in the mask is adjacent in the
// elimination graph after removing S.
func (s *exactSolver) isClique(mask, S uint64) bool {
	for m := mask; m != 0; m &= m - 1 {
		v := bits.TrailingZeros64(m)
		rest := m &^ (1 << uint(v))
		if rest&^s.elimNeighbors(v, S) != 0 {
			return false
		}
	}
	return true
}
