package treewidth

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/logic"
)

// This file holds the reference solvers the differential tests and
// benchmarks drive the production engines against. Nothing outside tests
// calls them.

// The map-based realization below is the executable specification of the
// elimination heuristics: neighbour sets as maps, scores recomputed from
// scratch every round. The bitset and sparse engines replaced it on the
// hot path; differential tests keep them order-, bag- and width-identical
// to it, which pins the incremental count maintenance exactly.

type refElimState struct {
	nbr   []map[int]struct{}
	alive []bool
	left  int
}

func newRefElimState(g *graph.Graph) *refElimState {
	n := g.N()
	st := &refElimState{
		nbr:   make([]map[int]struct{}, n),
		alive: make([]bool, n),
		left:  n,
	}
	for v := 0; v < n; v++ {
		st.alive[v] = true
		st.nbr[v] = make(map[int]struct{}, g.Degree(v))
		for _, w := range g.Neighbors(v) {
			st.nbr[v][int(w)] = struct{}{}
		}
	}
	return st
}

func (st *refElimState) bagOf(v int) []int {
	bag := make([]int, 0, len(st.nbr[v])+1)
	bag = append(bag, v)
	for w := range st.nbr[v] {
		bag = append(bag, w)
	}
	sort.Ints(bag)
	return bag
}

func (st *refElimState) eliminate(v int) int {
	nbrs := make([]int, 0, len(st.nbr[v]))
	for w := range st.nbr[v] {
		nbrs = append(nbrs, w)
	}
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			a, b := nbrs[i], nbrs[j]
			st.nbr[a][b] = struct{}{}
			st.nbr[b][a] = struct{}{}
		}
		delete(st.nbr[nbrs[i]], v)
	}
	st.alive[v] = false
	st.left--
	return len(nbrs)
}

func (st *refElimState) fillCost(v int) int {
	nbrs := make([]int, 0, len(st.nbr[v]))
	for w := range st.nbr[v] {
		nbrs = append(nbrs, w)
	}
	missing := 0
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if _, ok := st.nbr[nbrs[i]][nbrs[j]]; !ok {
				missing++
			}
		}
	}
	return missing
}

// runHeuristicReference is the reference elimination driver the
// differential test compares runHeuristic against.
func runHeuristicReference(g *graph.Graph, score heuristicScore) (*Decomposition, []int, int) {
	st := newRefElimState(g)
	n := g.N()
	order := make([]int, 0, n)
	bags := make([][]int, 0, n)
	width := 0
	for st.left > 0 {
		best, bestScore := -1, 0
		for v := 0; v < n; v++ {
			if !st.alive[v] {
				continue
			}
			s := len(st.nbr[v])
			if score == scoreFill {
				s = st.fillCost(v)
			}
			if best == -1 || s < bestScore {
				best, bestScore = v, s
			}
		}
		order = append(order, best)
		bags = append(bags, st.bagOf(best))
		if d := st.eliminate(best); d > width {
			width = d
		}
	}
	return linkEliminationBagsReference(order, bags), order, width
}

// linkEliminationBagsReference is the original elimination-tree linker:
// bags[i] is the bag of order[i], and each bag attaches to the bag of its
// earliest-eliminated later member, or to the next bag in order when it
// has none, growing every tree row by append.
func linkEliminationBagsReference(order []int, bags [][]int) *Decomposition {
	n := len(order)
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	d := &Decomposition{Bags: bags, Adj: make([][]int, n)}
	for i, v := range order {
		first := -1
		for _, w := range bags[i] {
			if w != v && (first == -1 || pos[w] < first) {
				first = pos[w]
			}
		}
		if first == -1 && i+1 < n {
			first = i + 1
		}
		if first != -1 {
			d.Adj[i] = append(d.Adj[i], first)
			d.Adj[first] = append(d.Adj[first], i)
		}
	}
	return d
}

// decomposeBlocksReference is the original assembly of a block-split
// decomposition, on the reference elimination: one decomposition per
// block (the min-fill vs min-degree contest on the induced subgraph,
// bags mapped back to g) and per isolated vertex, concatenated with
// shifted tree rows, glued at cut vertices, and chained into one tree by
// a search from bag 0 that links every unreached piece to it. Blocks
// must be small enough for the contest (at most largeBlockMinDegreeOnly
// vertices).
func decomposeBlocksReference(g *graph.Graph, blocks [][]int) *Decomposition {
	n := g.N()
	var pieces []*Decomposition
	for _, block := range blocks {
		sub, _ := g.InducedSubgraph(block)
		d, _, wf := runHeuristicReference(sub, scoreFill)
		if dd, _, wd := runHeuristicReference(sub, scoreDegree); wd < wf {
			d = dd
		}
		for _, bag := range d.Bags {
			for k, v := range bag {
				bag[k] = block[v]
			}
		}
		pieces = append(pieces, d)
	}
	for v := 0; v < n; v++ {
		if g.Degree(v) == 0 {
			pieces = append(pieces, &Decomposition{Bags: [][]int{{v}}, Adj: [][]int{nil}})
		}
	}
	out := &Decomposition{}
	offset := make([]int, len(pieces))
	for i, d := range pieces {
		offset[i] = len(out.Bags)
		out.Bags = append(out.Bags, d.Bags...)
		for _, adj := range d.Adj {
			for k := range adj {
				adj[k] += offset[i]
			}
		}
		out.Adj = append(out.Adj, d.Adj...)
	}
	link := func(a, b int) {
		out.Adj[a] = append(out.Adj[a], b)
		out.Adj[b] = append(out.Adj[b], a)
	}
	anchor := make([]int, n)
	for v := range anchor {
		anchor[v] = -1
	}
	for i, d := range pieces {
		for bi, bag := range d.Bags {
			for _, v := range bag {
				if anchor[v] == -1 {
					anchor[v] = bi + offset[i]
				} else if anchor[v] < offset[i] {
					link(anchor[v], bi+offset[i])
					anchor[v] = bi + offset[i]
				}
			}
		}
	}
	seen := make([]bool, len(out.Bags))
	var mark func(b int)
	mark = func(b int) {
		seen[b] = true
		for _, c := range out.Adj[b] {
			if !seen[c] {
				mark(c)
			}
		}
	}
	mark(0)
	for i := range pieces {
		if !seen[offset[i]] {
			link(0, offset[i])
			mark(offset[i])
		}
	}
	return out
}

// evalTupleReference is the original matrix evaluator, which walks the
// formula AST and resolves every variable and set name through a map on
// each visit. TestCompiledMatrixMatchesAST holds EvalTuple's compiled
// node slice to it.
func evalTupleReference(phi *EMSO, tuple []int, adj func(a, b int) bool, member func(set, point int) bool) bool {
	ev := astEval{varIdx: map[logic.Var]int{}, setIdx: map[logic.SetVar]int{}, tuple: tuple, adj: adj, member: member}
	for i, v := range phi.Vars {
		ev.varIdx[v] = i
	}
	for i, s := range phi.Sets {
		ev.setIdx[s] = i
	}
	return ev.eval(phi.Matrix)
}

type astEval struct {
	varIdx map[logic.Var]int
	setIdx map[logic.SetVar]int
	tuple  []int
	adj    func(a, b int) bool
	member func(set, point int) bool
}

func (ev *astEval) eval(f logic.Formula) bool {
	switch t := f.(type) {
	case logic.Equal:
		return ev.tuple[ev.varIdx[t.X]] == ev.tuple[ev.varIdx[t.Y]]
	case logic.Adj:
		a, b := ev.tuple[ev.varIdx[t.X]], ev.tuple[ev.varIdx[t.Y]]
		return a != b && ev.adj(a, b)
	case logic.In:
		return ev.member(ev.setIdx[t.S], ev.tuple[ev.varIdx[t.X]])
	case logic.HasLabel:
		return t.Label == 0
	case logic.Not:
		return !ev.eval(t.F)
	case logic.And:
		return ev.eval(t.L) && ev.eval(t.R)
	case logic.Or:
		return ev.eval(t.L) || ev.eval(t.R)
	case logic.Implies:
		return !ev.eval(t.L) || ev.eval(t.R)
	default:
		panic(fmt.Sprintf("treewidth: emso: unexpected matrix node %T", f))
	}
}

// solveEMSOReference is the original map-based realization of the EMSO
// dynamic program: per-node state sets held in map[uint64]struct{} and
// recursive closures for both passes. The table-driven SolveEMSO (see
// emso_engine.go) replaced it on the hot path; this implementation is
// retained as the executable specification that the differential property
// test drives the optimized engine against — verdicts and extracted
// witness words must match byte for byte. It reads the nodes' kinds,
// vertices, children and bags, and finds each vertex's position by
// searching the bag rather than reading NiceNode.Pos.
func solveEMSOReference(g *graph.Graph, nice *Nice, phi *EMSO) ([]uint8, bool, error) {
	m := len(phi.Sets)
	states := 1
	for i := 0; i <= nice.Width(); i++ {
		states *= 1 << uint(m)
		if states > MaxDPStates {
			return nil, false, fmt.Errorf("treewidth: width %d too large for the %d-set EMSO DP (limit %d states)",
				nice.Width(), m, MaxDPStates)
		}
	}
	valid := make([]map[uint64]struct{}, len(nice.Nodes))
	var up func(t int) map[uint64]struct{}
	up = func(t int) map[uint64]struct{} {
		if valid[t] != nil {
			return valid[t]
		}
		node := &nice.Nodes[t]
		out := map[uint64]struct{}{}
		switch node.Kind {
		case KindLeaf:
			out[0] = struct{}{}
		case KindIntroduce:
			child := up(int(node.Child[0]))
			bag := bagInts(nice, t)
			pos := sort.SearchInts(bag, int(node.Vertex))
			for cs := range child {
				for w := uint64(0); w < 1<<uint(m); w++ {
					s := expandWord(cs, pos, m, w)
					if introduceOK(g, phi, bag, pos, s) {
						out[s] = struct{}{}
					}
				}
			}
		case KindForget:
			child := up(int(node.Child[0]))
			pos := sort.SearchInts(bagInts(nice, int(node.Child[0])), int(node.Vertex))
			for cs := range child {
				out[forgetWord(cs, pos, m)] = struct{}{}
			}
		case KindJoin:
			left := up(int(node.Child[0]))
			right := up(int(node.Child[1]))
			for s := range left {
				if _, ok := right[s]; ok {
					out[s] = struct{}{}
				}
			}
		}
		valid[t] = out
		return out
	}
	if _, ok := up(nice.Root)[0]; !ok {
		return nil, false, nil
	}
	words := make([]int16, g.N())
	for v := range words {
		words[v] = -1
	}
	var down func(t int, s uint64) error
	down = func(t int, s uint64) error {
		node := &nice.Nodes[t]
		switch node.Kind {
		case KindLeaf:
			return nil
		case KindIntroduce:
			pos := sort.SearchInts(bagInts(nice, t), int(node.Vertex))
			if words[node.Vertex] == -1 {
				words[node.Vertex] = int16(wordAt(s, pos, m))
			}
			return down(int(node.Child[0]), forgetWord(s, pos, m))
		case KindForget:
			pos := sort.SearchInts(bagInts(nice, int(node.Child[0])), int(node.Vertex))
			child := valid[node.Child[0]]
			for w := uint64(0); w < 1<<uint(m); w++ {
				cs := expandWord(s, pos, m, w)
				if _, ok := child[cs]; ok {
					return down(int(node.Child[0]), cs)
				}
			}
			return &TracebackError{Node: t, Kind: node.Kind, Bag: bagInts(nice, t)}
		case KindJoin:
			if err := down(int(node.Child[0]), s); err != nil {
				return err
			}
			return down(int(node.Child[1]), s)
		}
		return &TracebackError{Node: t, Kind: node.Kind, Bag: bagInts(nice, t)}
	}
	if err := down(nice.Root, 0); err != nil {
		return nil, false, err
	}
	out := make([]uint8, g.N())
	for v, w := range words {
		if w == -1 {
			return nil, false, fmt.Errorf("treewidth: EMSO DP left vertex %d without a membership word", v)
		}
		out[v] = uint8(w)
	}
	// The DP guarantees the checks below; assert them so a table bug
	// cannot leak a bogus witness (mirrors the colouring DP's guard).
	member := func(set, point int) bool { return out[point]>>uint(set)&1 == 1 }
	adj := func(a, b int) bool { return g.HasEdge(a, b) }
	for i := range nice.Nodes {
		bag := bagInts(nice, i)
		if !allTuplesOKReference(phi, bag, adj, member, -1) {
			return nil, false, fmt.Errorf("treewidth: EMSO DP produced a witness violating the matrix in bag %v", bag)
		}
	}
	return out, true, nil
}

// bagInts copies node t's bag out of the arena as ints, the shape the
// reference checks read.
func bagInts(nice *Nice, t int) []int {
	bag := make([]int, 0, len(nice.Bag(t)))
	for _, v := range nice.Bag(t) {
		bag = append(bag, int(v))
	}
	return bag
}

// introduceOK checks every matrix tuple over the bag that involves the
// introduced position, reading memberships from the packed DP state.
func introduceOK(g *graph.Graph, phi *EMSO, bag []int, pos int, s uint64) bool {
	m := len(phi.Sets)
	member := func(set, point int) bool {
		p := sort.SearchInts(bag, point)
		return wordAt(s, p, m)>>uint(set)&1 == 1
	}
	return allTuplesOKReference(phi, bag, func(a, b int) bool { return g.HasEdge(a, b) }, member, bag[pos])
}

// ColorGraph decides c-colorability of g by the standard Courcelle-style
// dynamic program over a nice decomposition (valid states per node: the
// proper colourings of the bag extendable to the processed subgraph) and,
// when colorable, extracts a witness colouring by walking the tables back
// down from the root. It returns (nil, false, nil) when g is not
// c-colorable and an error when the width is too large for the table
// bound.
func ColorGraph(g *graph.Graph, nice *Nice, c int) ([]int, bool, error) {
	if c < 1 || c > 4 {
		return nil, false, fmt.Errorf("treewidth: colour count %d out of range [1,4]", c)
	}
	states := 1
	for i := 0; i <= nice.Width(); i++ {
		states *= c
		if states > MaxDPStates {
			return nil, false, fmt.Errorf("treewidth: width %d too large for %d-colouring DP (limit %d states)",
				nice.Width(), c, MaxDPStates)
		}
	}
	// Bottom-up: valid[t] is the set of proper bag colourings (packed 2
	// bits per bag position) extendable to the subgraph below t.
	valid := make([]map[uint64]struct{}, len(nice.Nodes))
	var up func(t int) map[uint64]struct{}
	up = func(t int) map[uint64]struct{} {
		if valid[t] != nil {
			return valid[t]
		}
		node := &nice.Nodes[t]
		out := map[uint64]struct{}{}
		switch node.Kind {
		case KindLeaf:
			out[0] = struct{}{}
		case KindIntroduce:
			child := up(int(node.Child[0]))
			bag := bagInts(nice, t)
			pos := sort.SearchInts(bag, int(node.Vertex))
			for cs := range child {
				for col := 0; col < c; col++ {
					s, ok := introduceState(g, bag, pos, col, cs)
					if ok {
						out[s] = struct{}{}
					}
				}
			}
		case KindForget:
			child := up(int(node.Child[0]))
			pos := sort.SearchInts(bagInts(nice, int(node.Child[0])), int(node.Vertex))
			for cs := range child {
				out[forgetState(cs, pos)] = struct{}{}
			}
		case KindJoin:
			left := up(int(node.Child[0]))
			right := up(int(node.Child[1]))
			for s := range left {
				if _, ok := right[s]; ok {
					out[s] = struct{}{}
				}
			}
		}
		valid[t] = out
		return out
	}
	rootStates := up(nice.Root)
	if _, ok := rootStates[0]; !ok {
		return nil, false, nil
	}
	// Top-down traceback: push the chosen state down, recording colors at
	// introduce nodes. States at joins are shared verbatim; forget nodes
	// search their child's table for an extension.
	colors := make([]int, g.N())
	for v := range colors {
		colors[v] = -1
	}
	var down func(t int, s uint64) error
	down = func(t int, s uint64) error {
		node := &nice.Nodes[t]
		switch node.Kind {
		case KindLeaf:
			return nil
		case KindIntroduce:
			pos := sort.SearchInts(bagInts(nice, t), int(node.Vertex))
			col := int(s >> uint(2*pos) & 3)
			if colors[node.Vertex] == -1 {
				colors[node.Vertex] = col
			}
			return down(int(node.Child[0]), forgetState(s, pos))
		case KindForget:
			pos := sort.SearchInts(bagInts(nice, int(node.Child[0])), int(node.Vertex))
			child := valid[node.Child[0]]
			for col := 0; col < c; col++ {
				cs := expandState(s, pos, col)
				if _, ok := child[cs]; ok {
					return down(int(node.Child[0]), cs)
				}
			}
			return fmt.Errorf("treewidth: colouring DP traceback stuck at forget node %d", t)
		case KindJoin:
			if err := down(int(node.Child[0]), s); err != nil {
				return err
			}
			return down(int(node.Child[1]), s)
		}
		return fmt.Errorf("treewidth: unknown node kind %v", node.Kind)
	}
	if err := down(nice.Root, 0); err != nil {
		return nil, false, err
	}
	// The DP guarantees properness; assert it so a table bug cannot leak a
	// bogus witness.
	for _, e := range g.Edges() {
		if colors[e[0]] == -1 || colors[e[1]] == -1 || colors[e[0]] == colors[e[1]] {
			return nil, false, fmt.Errorf("treewidth: colouring DP produced an improper colouring at edge (%d,%d)", e[0], e[1])
		}
	}
	for v, col := range colors {
		if col == -1 {
			return nil, false, fmt.Errorf("treewidth: colouring DP left vertex %d uncoloured", v)
		}
	}
	return colors, true, nil
}

// introduceState inserts color col for the vertex at bag position pos into
// the child state, rejecting colourings that clash with a bag neighbour.
func introduceState(g *graph.Graph, bag []int, pos, col int, child uint64) (uint64, bool) {
	v := bag[pos]
	s := expandState(child, pos, col)
	for i, u := range bag {
		if i == pos {
			continue
		}
		if g.HasEdge(v, u) && int(s>>uint(2*i)&3) == col {
			return 0, false
		}
	}
	return s, true
}

// expandState inserts a 2-bit color at position pos, shifting higher
// positions up.
func expandState(s uint64, pos, col int) uint64 {
	low := s & (1<<uint(2*pos) - 1)
	high := s >> uint(2*pos)
	return low | uint64(col)<<uint(2*pos) | high<<uint(2*pos+2)
}

// forgetState removes the 2-bit color at position pos from a state over
// size positions.
func forgetState(s uint64, pos int) uint64 {
	low := s & (1<<uint(2*pos) - 1)
	high := s >> uint(2*pos+2)
	return low | high<<uint(2*pos)
}

// validateReference is the original decomposition checker, kept as the
// executable specification validateCp is differentially tested against
// (nil versus non-nil on every input): per-bag duplicate maps and an
// O(deg²) symmetry scan, a DFS for tree connectivity, per-vertex trace
// slices intersected for edge coverage, and a BFS inside every trace.
func validateReference(g *graph.Graph, d *Decomposition) error {
	if d == nil || len(d.Bags) == 0 {
		return fmt.Errorf("treewidth: decomposition has no bags")
	}
	nb := len(d.Bags)
	if len(d.Adj) != nb {
		return fmt.Errorf("treewidth: %d adjacency lists for %d bags", len(d.Adj), nb)
	}
	edges := 0
	for b, nbrs := range d.Adj {
		seen := make(map[int]bool, len(nbrs))
		for _, c := range nbrs {
			if c < 0 || c >= nb {
				return fmt.Errorf("treewidth: bag %d has tree neighbour %d out of range", b, c)
			}
			if c == b {
				return fmt.Errorf("treewidth: bag %d has a self-loop", b)
			}
			if seen[c] {
				return fmt.Errorf("treewidth: duplicate tree edge (%d,%d)", b, c)
			}
			seen[c] = true
			found := false
			for _, back := range d.Adj[c] {
				if back == b {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("treewidth: tree edge (%d,%d) is not symmetric", b, c)
			}
			edges++
		}
	}
	edges /= 2
	if edges != nb-1 {
		return fmt.Errorf("treewidth: decomposition tree has %d edges for %d bags (want %d)", edges, nb, nb-1)
	}
	if !treeConnected(d.Adj) {
		return fmt.Errorf("treewidth: decomposition tree is disconnected")
	}
	n := g.N()
	traces := make([][]int, n)
	for b, bag := range d.Bags {
		for i, v := range bag {
			if v < 0 || v >= n {
				return fmt.Errorf("treewidth: bag %d entry %d out of range [0,%d)", b, v, n)
			}
			if i > 0 && bag[i-1] >= v {
				return fmt.Errorf("treewidth: bag %d is not strictly increasing at position %d", b, i)
			}
			traces[v] = append(traces[v], b)
		}
	}
	for v := 0; v < n; v++ {
		if len(traces[v]) == 0 {
			return fmt.Errorf("treewidth: vertex %d is in no bag", v)
		}
	}
	for _, e := range g.Edges() {
		if !sortedIntersect(traces[e[0]], traces[e[1]]) {
			return fmt.Errorf("treewidth: edge (%d,%d) is covered by no bag", e[0], e[1])
		}
	}
	inTrace := make([]bool, nb)
	for v := 0; v < n; v++ {
		for _, b := range traces[v] {
			inTrace[b] = true
		}
		reached := traceReach(d.Adj, traces[v][0], inTrace)
		for _, b := range traces[v] {
			inTrace[b] = false
		}
		if reached != len(traces[v]) {
			return fmt.Errorf("treewidth: trace of vertex %d is disconnected (%d of %d bags reachable)",
				v, reached, len(traces[v]))
		}
	}
	return nil
}

// treeConnected reports whether the adjacency describes a connected graph.
func treeConnected(adj [][]int) bool {
	if len(adj) == 0 {
		return false
	}
	seen := make([]bool, len(adj))
	stack := []int{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, c := range adj[b] {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return count == len(adj)
}

// traceReach counts the bags of the trace (marked in member) reachable
// from start without leaving the trace.
func traceReach(adj [][]int, start int, member []bool) int {
	seen := map[int]bool{start: true}
	stack := []int{start}
	count := 0
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, c := range adj[b] {
			if member[c] && !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return count
}

// sortedIntersect reports whether two ascending int slices share an entry.
func sortedIntersect(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// refNiceNode is the original nice-node shape: one fresh slice per bag
// and child list.
type refNiceNode struct {
	Kind     NodeKind
	Bag      []int
	Vertex   int
	Children []int
}

// refNice is the original nice decomposition: its nodes, the root's
// index and the width.
type refNice struct {
	Nodes []refNiceNode
	Root  int
	width int
}

// makeNiceReference is the original recursive nice conversion, one fresh
// slice per bag and child list. MakeNiceCtx must build the same nodes in
// the same index order: the EMSO DP's witness, and so every certificate,
// follows the tree's shape.
func makeNiceReference(d *Decomposition, root int) (*refNice, error) {
	parent, order, err := rootedReference(d, root)
	if err != nil {
		return nil, err
	}
	children := make([][]int, len(d.Bags))
	for _, b := range order {
		if parent[b] >= 0 {
			children[parent[b]] = append(children[parent[b]], b)
		}
	}
	nice := &refNice{width: -1}
	add := func(nd refNiceNode) int {
		if nd.Bag == nil {
			nd.Bag = []int{}
		}
		nice.width = max(nice.width, len(nd.Bag)-1)
		nice.Nodes = append(nice.Nodes, nd)
		return len(nice.Nodes) - 1
	}
	var build func(b int) int
	build = func(b int) int {
		bag := append([]int(nil), d.Bags[b]...)
		if len(children[b]) == 0 {
			node := add(refNiceNode{Kind: KindLeaf, Vertex: -1})
			cur := []int{}
			for _, v := range bag {
				cur = insertSorted(cur, v)
				node = add(refNiceNode{Kind: KindIntroduce, Bag: cur, Vertex: v, Children: []int{node}})
			}
			return node
		}
		var tops []int
		for _, c := range children[b] {
			node := build(c)
			cur := append([]int(nil), d.Bags[c]...)
			for _, v := range diffSorted(d.Bags[c], bag) {
				cur = removeSorted(cur, v)
				node = add(refNiceNode{Kind: KindForget, Bag: cur, Vertex: v, Children: []int{node}})
			}
			for _, v := range diffSorted(bag, d.Bags[c]) {
				cur = insertSorted(cur, v)
				node = add(refNiceNode{Kind: KindIntroduce, Bag: cur, Vertex: v, Children: []int{node}})
			}
			tops = append(tops, node)
		}
		node := tops[0]
		for _, other := range tops[1:] {
			node = add(refNiceNode{Kind: KindJoin, Bag: bag, Vertex: -1, Children: []int{node, other}})
		}
		return node
	}
	top := build(root)
	cur := append([]int(nil), d.Bags[root]...)
	for len(cur) > 0 {
		v := cur[len(cur)-1]
		cur = removeSorted(cur, v)
		top = add(refNiceNode{Kind: KindForget, Bag: cur, Vertex: v, Children: []int{top}})
	}
	nice.Root = top
	return nice, nil
}

// rootedReference orients the decomposition tree at the given root bag,
// independently of rootCp: the parent of every bag (-1 at the root) and
// a top-down BFS order. It assumes the tree structure is valid.
func rootedReference(d *Decomposition, root int) (parent, order []int, err error) {
	nb := len(d.Bags)
	if root < 0 || root >= nb {
		return nil, nil, fmt.Errorf("treewidth: root bag %d out of range [0,%d)", root, nb)
	}
	parent = make([]int, nb)
	for b := range parent {
		parent[b] = -2
	}
	parent[root] = -1
	order = append(make([]int, 0, nb), root)
	for head := 0; head < len(order); head++ {
		b := order[head]
		for _, c := range d.Adj[b] {
			if parent[c] == -2 {
				parent[c] = b
				order = append(order, c)
			}
		}
	}
	if len(order) != nb {
		return nil, nil, fmt.Errorf("treewidth: decomposition tree is disconnected")
	}
	return parent, order, nil
}

// insertSorted returns a copy of the sorted slice with v inserted.
func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	out := make([]int, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, v)
	out = append(out, s[i:]...)
	return out
}

// removeSorted returns a copy of the sorted slice with v removed.
func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	out := make([]int, 0, len(s)-1)
	out = append(out, s[:i]...)
	if i < len(s) {
		out = append(out, s[i+1:]...)
	}
	return out
}

// diffSorted returns the entries of a not in b (both sorted).
func diffSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) {
		switch {
		case j >= len(b) || a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// allTuplesOKReference is the original clique-tuple enumerator, the
// executable specification of cliqueTuples.allTuplesOK: it draws every
// point of the bag after every other and prunes tuples whose points are
// not pairwise equal or adjacent, so a point set of size n costs Θ(n^r)
// adjacency probes. When mustInclude >= 0, only tuples containing that
// point are checked.
func allTuplesOKReference(phi *EMSO, bag []int, adj func(a, b int) bool, member func(set, point int) bool, mustInclude int) bool {
	if len(bag) == 0 {
		return true
	}
	tc := tupleCheckReference{phi: phi, bag: bag, adj: adj, member: member, mustInclude: mustInclude}
	return tc.rec(0, false)
}

type tupleCheckReference struct {
	phi         *EMSO
	bag         []int
	adj         func(a, b int) bool
	member      func(set, point int) bool
	mustInclude int
	tuple       [MaxEMSOVars]int
}

func (tc *tupleCheckReference) rec(i int, has bool) bool {
	r := len(tc.phi.Vars)
	if i == r {
		if tc.mustInclude >= 0 && !has {
			return true
		}
		return tc.phi.EvalTuple(tc.tuple[:r], tc.adj, tc.member)
	}
next:
	for _, v := range tc.bag {
		for j := 0; j < i; j++ {
			if tc.tuple[j] != v && !tc.adj(tc.tuple[j], v) {
				continue next // non-clique tuple: vacuously true
			}
		}
		tc.tuple[i] = v
		if !tc.rec(i+1, has || v == tc.mustInclude) {
			return false
		}
	}
	return true
}

// verifyReference is MSOScheme.Verify as it stood before the shared
// clique-tuple check: binary searches into the bags, and the property
// checked by allTuplesOKReference over every point of the view with
// adjacency between two neighbours read off their rows on each probe.
// The differential tests hold Verify to its verdict at every vertex.
func verifyReference(s *MSOScheme, v cert.View) bool {
	phi := s.phi()
	m := phi.NumSets()
	own, ok := DecodePayload(v.Cert, v.ID, m)
	if !ok {
		return false
	}
	contains := func(ids []graph.ID, id graph.ID) bool {
		_, found := slices.BinarySearch(ids, id)
		return found
	}
	if len(own.Bag) > s.T+1 {
		return false
	}
	if !contains(own.Bag, v.ID) || !contains(own.Bag, own.BagID) {
		return false
	}
	if own.BagID > v.ID {
		return false
	}
	for i, id := range own.Bag {
		_, isNb := v.NeighborByID(id)
		if id == v.ID {
			isNb = false
		}
		if own.Row[i] != isNb {
			return false
		}
	}
	neighbors := make([]Payload, len(v.Neighbors))
	for i, nb := range v.Neighbors {
		pu, ok := DecodePayload(nb.Cert, nb.ID, m)
		if !ok {
			return false
		}
		neighbors[i] = pu
		if len(pu.Bag) > s.T+1 || !contains(pu.Bag, nb.ID) {
			return false
		}
		uIn := contains(own.Bag, nb.ID)
		vIn := contains(pu.Bag, v.ID)
		if !uIn && !vIn {
			return false
		}
		if own.BagID == pu.BagID {
			if own.Depth != pu.Depth || !slices.Equal(own.Bag, pu.Bag) {
				return false
			}
		} else {
			if uIn && vIn {
				return false
			}
			if uIn && pu.Depth >= own.Depth {
				return false
			}
			if vIn && own.Depth >= pu.Depth {
				return false
			}
		}
	}
	ids := []graph.ID{v.ID}
	words := []uint64{own.State}
	points := []int{0}
	for i, nb := range v.Neighbors {
		ids = append(ids, nb.ID)
		words = append(words, neighbors[i].State)
		points = append(points, i+1)
	}
	adj := func(a, b int) bool {
		if a == b {
			return false
		}
		if a == 0 || b == 0 {
			return true
		}
		pa, pb := neighbors[a-1], neighbors[b-1]
		if i, ok := slices.BinarySearch(pa.Bag, ids[b]); ok && pa.Row[i] {
			return true
		}
		if i, ok := slices.BinarySearch(pb.Bag, ids[a]); ok && pb.Row[i] {
			return true
		}
		return false
	}
	member := func(set, point int) bool { return words[point]>>uint(set)&1 == 1 }
	return allTuplesOKReference(phi, points, adj, member, -1)
}

// proveReference is MSOScheme.ProveCtx as it stood before certificates
// were written straight from the decomposition: the nice conversion and
// the EMSO DP on every prove, a valid matrix included, then one Payload
// per vertex from buildPayloadsReference, encoded in a second loop. The
// differential tests hold ProveCtx to its certificates byte for byte.
func proveReference(s *MSOScheme, g *graph.Graph) (cert.Assignment, error) {
	ctx := context.Background()
	if g.N() == 0 || !g.Connected() {
		return nil, fmt.Errorf("treewidth: %s: graph must be connected and non-empty", s.Name())
	}
	d, r, err := s.decomposition(ctx, g)
	if err != nil {
		return nil, err
	}
	var cp fault.Checkpoint
	nice, err := makeNice(&cp, d, r)
	if err != nil {
		return nil, err
	}
	words, ok, err := SolveEMSOCtx(ctx, g, nice, s.phi())
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("treewidth: tw-mso[%s]: property does not hold (nothing to certify)", s.Prop.Name)
	}
	payloads := buildPayloadsReference(g, d, r, words)
	a := make(cert.Assignment, len(payloads))
	setBits := s.phi().NumSets()
	for v, p := range payloads {
		a[v] = EncodePayload(p, g.IDOf(v), setBits)
	}
	return a, nil
}

// buildPayloadsReference assembles the per-vertex payloads from a
// validated decomposition, its rooting at bag 0 and the DP's witness
// words: prune bags that are nobody's home, name each remaining bag after
// its smallest homed vertex id, and attach each vertex's adjacency row
// over its home bag (binary searches through IndexOf and HasEdge) and its
// witness word.
func buildPayloadsReference(g *graph.Graph, d *Decomposition, r rooting, words []uint8) []Payload {
	owner := make([]graph.ID, d.NumBags())
	for v, b := range r.home {
		id := g.IDOf(v)
		if owner[b] == 0 || id < owner[b] {
			owner[b] = id
		}
	}
	hanc := make([]int32, d.NumBags())
	pruned := make([]uint64, d.NumBags())
	for _, b := range r.order {
		pb := r.parent[b]
		anc := int32(-1)
		if pb >= 0 {
			anc = hanc[pb]
			if owner[pb] != 0 {
				anc = pb
			}
		}
		hanc[b] = anc
		if owner[b] != 0 && anc >= 0 {
			pruned[b] = pruned[anc] + 1
		}
	}
	bagIDs := make([][]graph.ID, d.NumBags())
	payloads := make([]Payload, g.N())
	for v := range payloads {
		b := r.home[v]
		ids := bagIDs[b]
		if ids == nil {
			for _, u := range d.Bags[b] {
				ids = append(ids, g.IDOf(u))
			}
			slices.Sort(ids)
			bagIDs[b] = ids
		}
		row := make([]bool, len(ids))
		for i, id := range ids {
			if u, exists := g.IndexOf(id); exists && u != v {
				row[i] = g.HasEdge(v, u)
			}
		}
		payloads[v] = Payload{BagID: owner[b], Depth: pruned[b], Bag: ids, Row: row, State: uint64(words[v])}
	}
	return payloads
}

// DecodePayload parses a certificate into a Payload and checks its guard
// against the claimed owner; the whole certificate must be consumed. It
// is the decoder Verify used before the round parse (parseRound.parse),
// kept as the reference FuzzDecodePayload holds the parse to and as the
// tests' way to read honest certificates.
func DecodePayload(c cert.Certificate, owner graph.ID, setBits int) (Payload, bool) {
	var p Payload
	if !decodePayloadInto(c, owner, setBits, &p) {
		return Payload{}, false
	}
	return p, true
}

// decodePayloadInto is DecodePayload into caller-owned storage, reusing
// p's Bag and Row capacity. On failure p is left with truncated slices and
// must not be used.
func decodePayloadInto(c cert.Certificate, owner graph.ID, setBits int, p *Payload) bool {
	body, guard, ok := unseal(c)
	if !ok || guard != guardOf(owner, body) {
		return false
	}
	tail, ok := decodePrefixInto(body, p)
	if !ok {
		return false
	}
	br := bitio.NewReader(tail)
	p.Row = p.Row[:0]
	for i := 0; i < len(p.Bag); i++ {
		b, err := br.ReadBool()
		if err != nil {
			return false
		}
		p.Row = append(p.Row, b)
	}
	p.State = 0
	if setBits > 0 {
		state, err := br.ReadUint(setBits)
		if err != nil {
			return false
		}
		p.State = state
	}
	return br.Remaining() == 0
}
