// Package minor implements Corollary 2.7: P_t-minor-free and
// C_t-minor-free graphs have O(log n)-bit certifications.
//
//   - A graph has a P_t minor iff it contains a path on t vertices, so
//     P_t-minor-freeness bounds the treedepth by t-1 ([41]; a DFS tree is
//     a witness) and is itself expressible in FO — Theorem 2.6 applies
//     directly.
//   - A graph has a C_t minor iff it contains a simple cycle with at
//     least t vertices. C_t-minor-free graphs have unbounded treedepth
//     (paths!), but each 2-connected block is P_{t^2}-minor-free (the
//     paper's Appendix D.3 argument), so the corollary certifies the
//     block decomposition and runs the Theorem 2.6 machinery per block.
//
// The block-decomposition certification here uses a level-plus-gate
// arborescence over the block-cut structure (every non-root block's
// elimination tree is rooted at its gate cut vertex, one level above).
// The paper delegates this step to the heavier machinery of [8]; the
// construction used here is sound and complete but its certificate size
// scales with the number of blocks containing a vertex: O(log n) bits
// only on families where every vertex lies in a bounded number of
// blocks.
package minor

import (
	"fmt"

	"repro/internal/graph"
)

// HasPathMinor reports whether g contains P_t as a minor, i.e. a simple
// path on at least t vertices.
func HasPathMinor(g *graph.Graph, t int) bool {
	if t <= 1 {
		return g.N() >= 1
	}
	return g.LongestPathVertices() >= t
}

// HasCycleMinor reports whether g contains C_t as a minor, i.e. a simple
// cycle on at least t vertices (t >= 3). Every simple cycle lives inside
// one biconnected block, so the search decomposes into blocks first —
// which keeps it fast on block-small graphs like cacti, where a whole-
// graph path enumeration would be exponential.
func HasCycleMinor(g *graph.Graph, t int) bool {
	if t < 3 {
		t = 3
	}
	return longestCycleByBlocks(g) >= t
}

// longestCycleByBlocks returns the circumference of g, computed per
// biconnected block.
func longestCycleByBlocks(g *graph.Graph) int {
	best := 0
	for _, block := range g.BiconnectedComponents() {
		if len(block) < 3 {
			continue // bridges carry no cycles
		}
		sub, _ := g.InducedSubgraph(block)
		if c := sub.LongestCycleVertices(); c > best {
			best = c
		}
	}
	return best
}

// BlocksArePathMinorFree checks the Appendix D.3 structural fact on an
// instance: every 2-connected block of a C_t-minor-free graph is
// P_{t^2}-minor-free. Returns the largest longest-path over blocks.
func BlocksLongestPath(g *graph.Graph) int {
	longest := 0
	for _, block := range g.BiconnectedComponents() {
		sub, _ := g.InducedSubgraph(block)
		if lp := sub.LongestPathVertices(); lp > longest {
			longest = lp
		}
	}
	return longest
}

// circumferenceBelow reports whether every simple cycle of g has fewer
// than t vertices.
func circumferenceBelow(g *graph.Graph, t int) bool {
	return longestCycleByBlocks(g) < t
}

func validateConnected(g *graph.Graph) error {
	if g.N() == 0 || !g.Connected() {
		return fmt.Errorf("minor: graph must be connected and non-empty")
	}
	return nil
}
