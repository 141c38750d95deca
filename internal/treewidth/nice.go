package treewidth

import (
	"context"
	"fmt"
	"math"

	"repro/internal/fault"
)

// NodeKind labels the four node types of a nice tree decomposition.
type NodeKind uint8

const (
	// KindLeaf is a leaf with an empty bag.
	KindLeaf NodeKind = iota
	// KindIntroduce adds one vertex to its child's bag.
	KindIntroduce
	// KindForget removes one vertex from its child's bag.
	KindForget
	// KindJoin merges two children with identical bags.
	KindJoin
)

func (k NodeKind) String() string {
	switch k {
	case KindLeaf:
		return "leaf"
	case KindIntroduce:
		return "introduce"
	case KindForget:
		return "forget"
	case KindJoin:
		return "join"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// NiceNode is one node of a nice decomposition: a fixed-size record with
// no pointers, so the node slice is one allocation the garbage collector
// never scans. Its bag is a span of its Nice's bag arena (read it with
// Nice.Bag). Vertex is the introduced or forgotten vertex and Pos its
// position in the bag the dynamic programs read there, the node's own bag
// for an introduce node and its child's for a forget node; both are -1
// for the other kinds. Child holds the children, -1 where there is none:
// introduce and forget nodes have Child[0], joins both.
type NiceNode struct {
	Kind   NodeKind
	Vertex int32
	Pos    int32
	Child  [2]int32
	bagOff int32
	bagLen int32
}

// Nice is a nice (rooted, binary, single-change) tree decomposition: every
// node is a leaf, introduce, forget or join, leaves and the root have
// empty bags, and adjacent bags differ by exactly one vertex. The
// Courcelle-style dynamic programs run over this form. MakeNiceCtx
// stores the nodes children-first — every child has a smaller index
// than its parent, so index order is a post-order and the root comes
// last — and every bag is a span of one int32 arena.
type Nice struct {
	Nodes []NiceNode
	Root  int
	bags  []int32
	width int
	// forgets counts the forget nodes, and waiting bounds how many nodes
	// are built and not yet consumed by their parent at any point of
	// index order: the EMSO DP sizes its table list from the two.
	forgets, waiting int
}

// NumNodes returns the node count.
func (n *Nice) NumNodes() int { return len(n.Nodes) }

// Width returns the width of the nice decomposition (recorded by
// MakeNiceCtx: the largest bag size minus one).
func (n *Nice) Width() int { return n.width }

// Bag returns node t's bag, sorted: a read-only view into the arena.
func (n *Nice) Bag(t int) []int32 {
	nd := &n.Nodes[t]
	return n.bags[nd.bagOff : nd.bagOff+nd.bagLen : nd.bagOff+nd.bagLen]
}

// MakeNiceCtx converts a valid tree decomposition rooted at the given bag
// (rootCp checks the tree as it roots it; the bags are taken as valid)
// into a nice decomposition of the same width: each original bag becomes a
// chain of forget/introduce nodes toward its children, multi-child bags
// fan out through a left-deep fold of binary joins, leaves shrink to
// empty bags through introduce chains, and the root grows a forget chain
// so the nice root's bag is empty.
//
// The conversion first counts the nodes and bag entries exactly (from
// each bag's child count and |child∖bag|, |bag∖child| per tree edge) and
// fails if either count, or a vertex, does not fit an int32, before it
// allocates anything for the output. It then allocates the node slice and
// the bag arena and walks the tree with an explicit stack, so its memory
// is a handful of allocations and its Go stack is flat however deep the
// decomposition is (a path's has depth n-1). Join bags share the bag of
// their first chain's top, a leaf's introduce chain shares prefixes of one
// copy of the leaf bag, and the root's forget chain shares prefixes of
// the root bag. The walk checkpoints the context once per bag, so
// abandoning the nice form of a million-bag decomposition costs at most
// one stride.
func MakeNiceCtx(ctx context.Context, d *Decomposition, root int) (*Nice, error) {
	cp := fault.NewCheckpoint(ctx, "decompose")
	r, err := rootCp(&cp, d, root)
	if err != nil {
		return nil, err
	}
	return makeNice(&cp, d, r)
}

// makeNice is MakeNiceCtx on a decomposition rooted by rootCp or
// validateCp: the tw-mso prover hands it the rooting validation built.
func makeNice(cp *fault.Checkpoint, d *Decomposition, r rooting) (*Nice, error) {
	nb, root := len(d.Bags), int(r.order[0])
	// Each bag's children are consecutive in the BFS order: kids(b) is
	// order[first[b] : first[b]+count[b]], in tree-adjacency order.
	first := make([]int32, nb)
	count := make([]int32, nb)
	for i, b := range r.order[1:] {
		p := r.parent[b]
		if count[p] == 0 {
			first[p] = int32(i + 1)
		}
		count[p]++
	}
	kids := func(b int) []int32 { return r.order[first[b] : first[b]+count[b]] }
	nodes, bagEntries, maxBag := len(d.Bags[root]), 0, 0
	forgets := len(d.Bags[root]) // the root's forget chain
	for b, bag := range d.Bags {
		if err := cp.Check(); err != nil {
			return nil, err
		}
		if k := len(bag); k > 0 && (bag[0] < 0 || bag[k-1] > math.MaxInt32) {
			return nil, fmt.Errorf("treewidth: bag %d holds a vertex outside [0, %d]", b, math.MaxInt32)
		}
		maxBag = max(maxBag, len(bag))
		if count[b] == 0 {
			nodes += 1 + len(bag) // leaf and introduce chain
			bagEntries += len(bag)
		} else {
			nodes += int(count[b]) - 1 // joins
		}
		if b != root {
			up := d.Bags[r.parent[b]]
			shared := sharedSorted(bag, up)
			fs, intros := len(bag)-shared, len(up)-shared
			nodes += fs + intros
			forgets += fs
			// Forget bags shrink from |bag|-1 to shared, introduce bags
			// grow from shared+1 to |up|.
			bagEntries += (len(bag)-1+shared)*fs/2 + (shared+1+len(up))*intros/2
		}
		if nodes > math.MaxInt32 || bagEntries > math.MaxInt32 {
			return nil, fmt.Errorf("treewidth: the nice form of a %d-bag decomposition needs more than %d nodes or bag entries",
				nb, math.MaxInt32)
		}
	}
	a := &niceArena{
		nodes: make([]NiceNode, 0, nodes),
		bags:  make([]int32, 0, bagEntries),
	}
	// Walk the tree children-first. A frame's chain tops wait on the tops
	// stack until its last child is done; a finished bag's top node hangs
	// off its parent through a forget-then-introduce chain.
	type frame struct{ b, next, tops int }
	stack := []frame{{b: root}}
	var tops []int32
	top, waiting := int32(-1), 1
	for len(stack) > 0 {
		if err := cp.Check(); err != nil {
			return nil, err
		}
		f := &stack[len(stack)-1]
		bag := d.Bags[f.b]
		if ks := kids(f.b); f.next < len(ks) {
			if f.next == 0 {
				f.tops = len(tops)
			}
			f.next++
			stack = append(stack, frame{b: int(ks[f.next-1])})
			continue
		}
		if count[f.b] == 0 {
			// Introduce the bag vertex by vertex above an empty leaf:
			// the chain's bags are prefixes of one copy.
			off := int32(len(a.bags))
			for _, v := range bag {
				a.bags = append(a.bags, int32(v))
			}
			top = a.add(NiceNode{Kind: KindLeaf, Vertex: -1, Pos: -1, Child: [2]int32{-1, -1}, bagOff: off})
			for i, v := range bag {
				top = a.add(NiceNode{Kind: KindIntroduce, Vertex: int32(v), Pos: int32(i), Child: [2]int32{top, -1},
					bagOff: off, bagLen: int32(i + 1)})
			}
		} else {
			// Fold the chain tops left-deep with binary joins sharing the
			// first top's bag, which equals this bag.
			top = tops[f.tops]
			for _, other := range tops[f.tops+1:] {
				l := &a.nodes[top]
				top = a.add(NiceNode{Kind: KindJoin, Vertex: -1, Pos: -1, Child: [2]int32{top, other},
					bagOff: l.bagOff, bagLen: l.bagLen})
			}
			tops = tops[:f.tops]
		}
		stack = stack[:len(stack)-1]
		if len(stack) == 0 {
			break
		}
		// One chain toward the parent: forget bag∖up, then introduce
		// up∖bag, both in increasing order, ending exactly at the
		// parent's bag.
		up := d.Bags[stack[len(stack)-1].b]
		for i, j := 0, 0; i < len(bag); i++ {
			for j < len(up) && up[j] < bag[i] {
				j++
			}
			if j == len(up) || up[j] != bag[i] {
				top = a.step(KindForget, top, int32(bag[i]))
			}
		}
		for i, j := 0, 0; j < len(up); j++ {
			for i < len(bag) && bag[i] < up[j] {
				i++
			}
			if i == len(bag) || bag[i] != up[j] {
				top = a.step(KindIntroduce, top, int32(up[j]))
			}
		}
		tops = append(tops, top)
		// Every node built and not yet consumed is a pending top or
		// the one a chain is growing from.
		waiting = max(waiting, len(tops)+1)
	}
	// Forget the root bag down to empty, last vertex first: the chain's
	// bags are prefixes of the root bag.
	cur := a.nodes[top]
	for i := cur.bagLen - 1; i >= 0; i-- {
		top = a.add(NiceNode{Kind: KindForget, Vertex: a.bags[cur.bagOff+i], Pos: i, Child: [2]int32{top, -1},
			bagOff: cur.bagOff, bagLen: i})
	}
	return &Nice{Nodes: a.nodes, Root: int(top), bags: a.bags, width: maxBag - 1,
		forgets: forgets, waiting: waiting}, nil
}

// niceArena holds MakeNiceCtx's output while it is built: the nodes and
// the arena their bags are cut from, each sized exactly up front.
type niceArena struct {
	nodes []NiceNode
	bags  []int32
}

// add appends a node and returns its index.
func (a *niceArena) add(nd NiceNode) int32 {
	a.nodes = append(a.nodes, nd)
	return int32(len(a.nodes) - 1)
}

// step appends a forget or introduce node of v above node c, copying c's
// bag into the arena without or with v, and returns its index.
func (a *niceArena) step(kind NodeKind, c, v int32) int32 {
	src := a.nodes[c]
	nd := NiceNode{Kind: kind, Vertex: v, Child: [2]int32{c, -1}, bagOff: int32(len(a.bags))}
	insert := kind == KindIntroduce
	for i, x := range a.bags[src.bagOff : src.bagOff+src.bagLen] {
		if x == v { // forgotten: its position is in the child's bag
			nd.Pos = int32(i)
			continue
		}
		if insert && v < x {
			nd.Pos, insert = int32(len(a.bags))-nd.bagOff, false
			a.bags = append(a.bags, v)
		}
		a.bags = append(a.bags, x)
	}
	if insert {
		nd.Pos = int32(len(a.bags)) - nd.bagOff
		a.bags = append(a.bags, v)
	}
	nd.bagLen = int32(len(a.bags)) - nd.bagOff
	return a.add(nd)
}

// sharedSorted counts the entries two sorted slices have in common.
func sharedSorted(a, b []int) int {
	shared := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			shared++
			i++
			j++
		}
	}
	return shared
}

// MaxDPStates bounds the per-node state tables of the dynamic programs:
// an m-set EMSO sentence enumerates 2^(m·(width+1)) states per bag.
const MaxDPStates = 1 << 20
