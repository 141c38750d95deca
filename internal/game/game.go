// Package game implements the cops-and-robber characterization of
// treedepth used in the proof of Lemma 7.3 (via [33]) and illustrated by
// Figure 4: immobile cops are placed one by one; before each placement
// the position is announced and the robber may move anywhere in its
// cop-free region; the minimum number of cops that guarantees a capture
// equals the treedepth.
//
// The optimal cop strategy is exactly an optimal elimination tree — place
// the root of the robber's current component — and the optimal robber
// strategy is to flee into a component of maximum treedepth. The package
// exposes both, plus a playable simulation used by the Figure 4
// experiment.
package game

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/treedepth"
)

// Move records one round of the game.
type Move struct {
	Announced int // vertex announced (and then occupied) by the cops
	RobberTo  int // robber's position after its reaction
}

// Robber chooses how to react to an announced cop placement. options is
// the robber's current cop-free component (sorted, always containing its
// current position), announced is the vertex the cops will occupy next.
// The returned vertex must be in options; returning the announced vertex
// (or staying on it) loses immediately.
type Robber interface {
	React(g *graph.Graph, options []int, announced, current int) int
}

// StaticRobber never moves.
type StaticRobber struct{}

// React implements Robber.
func (StaticRobber) React(_ *graph.Graph, _ []int, _, current int) int { return current }

// GreedyRobber flees into the largest component that survives the
// announced placement.
type GreedyRobber struct{}

// React implements Robber.
func (GreedyRobber) React(g *graph.Graph, options []int, announced, current int) int {
	comps := splitComponents(g, options, announced)
	best := -1
	bestSize := -1
	for _, c := range comps {
		if len(c) > bestSize {
			bestSize = len(c)
			best = c[0]
		}
	}
	if best == -1 {
		return current // nowhere to go: captured next placement
	}
	return best
}

// OptimalRobber flees into a component of maximum treedepth, which forces
// the cops to spend exactly td(G) placements against the elimination-tree
// strategy.
type OptimalRobber struct{}

// React implements Robber.
func (OptimalRobber) React(g *graph.Graph, options []int, announced, current int) int {
	comps := splitComponents(g, options, announced)
	best := -1
	bestTD := -1
	for _, c := range comps {
		sub, _ := g.InducedSubgraph(c)
		td, _, err := treedepth.Exact(sub)
		if err != nil {
			continue
		}
		if td > bestTD {
			bestTD = td
			best = c[0]
		}
	}
	if best == -1 {
		return current
	}
	return best
}

// RandomRobber moves to a uniformly random surviving vertex.
type RandomRobber struct{ Rng *rand.Rand }

// React implements Robber.
func (r RandomRobber) React(g *graph.Graph, options []int, announced, current int) int {
	var pool []int
	for _, v := range options {
		if v != announced {
			pool = append(pool, v)
		}
	}
	if len(pool) == 0 {
		return current
	}
	return pool[r.Rng.Intn(len(pool))]
}

// Value returns the game value — the number of cops needed against
// optimal play — which equals the treedepth.
func Value(g *graph.Graph) (int, error) {
	td, _, err := treedepth.Exact(g)
	return td, err
}

// Play simulates the game with the optimal (elimination-tree) cop
// strategy against the given robber, which starts on any vertex of its
// choosing (the robber is given the whole graph as its first region and
// reacts to the first announcement). It returns the number of cops used
// and the move history.
func Play(g *graph.Graph, robber Robber) (int, []Move, error) {
	if g.N() == 0 || !g.Connected() {
		return 0, nil, fmt.Errorf("game: need a connected non-empty graph")
	}
	region := make([]int, g.N())
	for i := range region {
		region[i] = i
	}
	// The robber implicitly starts anywhere; track a current position that
	// the robber updates on each announcement. Start on region[0].
	current := region[0]
	var history []Move
	cops := 0
	for rounds := 0; rounds <= g.N(); rounds++ {
		sub, oldIdx := g.InducedSubgraph(region)
		_, model, err := treedepth.Exact(sub)
		if err != nil {
			return 0, nil, err
		}
		announced := oldIdx[model.Root()]
		moved := robber.React(g, region, announced, current)
		if !contains(region, moved) {
			return 0, nil, fmt.Errorf("game: robber moved to %d outside its region", moved)
		}
		current = moved
		cops++
		history = append(history, Move{Announced: announced, RobberTo: current})
		if current == announced {
			return cops, history, nil // captured
		}
		region = componentOf(g, region, announced, current)
		if len(region) == 0 {
			return cops, history, nil
		}
	}
	return 0, nil, fmt.Errorf("game: did not terminate within n rounds (cop strategy broken)")
}

// splitComponents returns the components of region minus the announced
// vertex.
func splitComponents(g *graph.Graph, region []int, announced int) [][]int {
	in := map[int]bool{}
	for _, v := range region {
		in[v] = true
	}
	delete(in, announced)
	seen := map[int]bool{}
	var out [][]int
	for _, s := range region {
		if s == announced || seen[s] {
			continue
		}
		var c []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c = append(c, u)
			for _, x := range g.Neighbors(u) {
				if w := int(x); in[w] && !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Ints(c)
		out = append(out, c)
	}
	return out
}

// componentOf returns the component of region minus announced containing
// the robber.
func componentOf(g *graph.Graph, region []int, announced, robber int) []int {
	for _, c := range splitComponents(g, region, announced) {
		if contains(c, robber) {
			return c
		}
	}
	return nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
