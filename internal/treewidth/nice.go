package treewidth

import (
	"context"
	"fmt"

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

// NiceNode is one node of a nice decomposition. Bag is sorted; Vertex is
// the introduced/forgotten vertex for those kinds (-1 otherwise).
type NiceNode struct {
	Kind     NodeKind
	Bag      []int
	Vertex   int
	Children []int
}

// Nice is a nice (rooted, binary, single-change) tree decomposition: every
// node is a leaf, introduce, forget or join, leaves and the root have
// empty bags, and adjacent bags differ by exactly one vertex. The
// Courcelle-style dynamic programs run over this form. MakeNiceCtx
// stores the nodes children-first — every child has a smaller index
// than its parent, so index order is a post-order and the root comes
// last — and bags and child lists are read-only views into shared
// arenas.
type Nice struct {
	Nodes []NiceNode
	Root  int
	width int
}

// NumNodes returns the node count.
func (n *Nice) NumNodes() int { return len(n.Nodes) }

// Width returns the width of the nice decomposition (recorded by
// MakeNiceCtx: the largest bag size minus one).
func (n *Nice) Width() int { return n.width }

// MakeNiceCtx converts a valid tree decomposition rooted at the given bag
// into a nice decomposition of the same width: each original bag becomes a
// chain of forget/introduce nodes toward its children, multi-child bags
// fan out through a left-deep fold of binary joins, leaves shrink to
// empty bags through introduce chains, and the root grows a forget chain
// so the nice root's bag is empty.
//
// The conversion first counts the nodes and bag entries exactly (from
// each bag's child count and |child∖bag|, |bag∖child| per tree edge),
// then allocates the node slice and two arenas — one for every bag, one
// for every child list — and walks the tree with an explicit stack, so
// its memory is a handful of allocations and its Go stack is flat however
// deep the decomposition is (a path's has depth n-1). Join bags share the
// bag of their first chain's top, a leaf's introduce chain shares prefixes
// of one copy of the leaf bag, and the root's forget chain shares prefixes
// of the root bag. The walk checkpoints the context once per bag, so
// abandoning the nice form of a million-bag decomposition costs at most
// one stride.
func MakeNiceCtx(ctx context.Context, d *Decomposition, root int) (*Nice, error) {
	parent, _, order, err := d.Rooted(root)
	if err != nil {
		return nil, err
	}
	nb := len(d.Bags)
	// A BFS appends each bag's children consecutively: kids(b) is
	// order[first[b] : first[b]+count[b]], in tree-adjacency order.
	first := make([]int32, nb)
	count := make([]int32, nb)
	for i, b := range order[1:] {
		p := parent[b]
		if count[p] == 0 {
			first[p] = int32(i + 1)
		}
		count[p]++
	}
	kids := func(b int) []int { return order[first[b] : first[b]+count[b]] }
	cp := fault.NewCheckpoint(ctx, "decompose")
	nodes, bagEntries, maxBag := len(d.Bags[root]), 0, 0
	for b, bag := range d.Bags {
		if err := cp.Check(); err != nil {
			return nil, err
		}
		maxBag = max(maxBag, len(bag))
		if count[b] == 0 {
			nodes += 1 + len(bag) // leaf and introduce chain
			bagEntries += len(bag)
		} else {
			nodes += int(count[b]) - 1 // joins
		}
		if b == root {
			continue
		}
		up := d.Bags[parent[b]]
		shared := sharedSorted(bag, up)
		forgets, intros := len(bag)-shared, len(up)-shared
		nodes += forgets + intros
		// Forget bags shrink from |bag|-1 to shared, introduce bags grow
		// from shared+1 to |up|.
		bagEntries += (len(bag)-1+shared)*forgets/2 + (shared+1+len(up))*intros/2
	}
	a := &niceArena{
		nodes:    make([]NiceNode, 0, nodes),
		bags:     make([]int, 0, bagEntries),
		children: make([]int, 0, nodes-1), // every node but the root is one child
	}
	// Walk the tree children-first. A frame's chain tops wait on the tops
	// stack until its last child is done; a finished bag's top node hangs
	// off its parent through a forget-then-introduce chain.
	type frame struct{ b, next, tops int }
	stack := []frame{{b: root}}
	var tops []int
	top := -1
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
			stack = append(stack, frame{b: ks[f.next-1]})
			continue
		}
		if count[f.b] == 0 {
			// Introduce the bag vertex by vertex above an empty leaf:
			// the chain's bags are prefixes of one copy.
			full := a.bag(bag, -1, -1)
			top = a.node(KindLeaf, full[:0:0], -1, -1)
			for i, v := range bag {
				top = a.node(KindIntroduce, full[:i+1:i+1], v, top)
			}
		} else {
			// Fold the chain tops left-deep with binary joins sharing the
			// first top's bag, which equals this bag.
			top = tops[f.tops]
			for _, other := range tops[f.tops+1:] {
				top = a.join(top, other)
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
				cur := a.nodes[top].Bag
				top = a.node(KindForget, a.bag(cur, bag[i], -1), bag[i], top)
			}
		}
		for i, j := 0, 0; j < len(up); j++ {
			for i < len(bag) && bag[i] < up[j] {
				i++
			}
			if i == len(bag) || bag[i] != up[j] {
				cur := a.nodes[top].Bag
				top = a.node(KindIntroduce, a.bag(cur, -1, up[j]), up[j], top)
			}
		}
		tops = append(tops, top)
	}
	// Forget the root bag down to empty, last vertex first: the chain's
	// bags are prefixes of the root bag.
	cur := a.nodes[top].Bag
	for i := len(cur) - 1; i >= 0; i-- {
		top = a.node(KindForget, cur[:i:i], cur[i], top)
	}
	return &Nice{Nodes: a.nodes, Root: top, width: maxBag - 1}, nil
}

// niceArena holds MakeNiceCtx's output while it is built: the nodes and
// the two arenas their bags and child lists are cut from, each sized
// exactly up front.
type niceArena struct {
	nodes    []NiceNode
	bags     []int
	children []int
}

// node appends a leaf (child -1), introduce or forget node and returns
// its index.
func (a *niceArena) node(kind NodeKind, bag []int, v, child int) int {
	lo := len(a.children)
	if child >= 0 {
		a.children = append(a.children, child)
	}
	a.nodes = append(a.nodes, NiceNode{Kind: kind, Bag: bag, Vertex: v, Children: a.children[lo:len(a.children):len(a.children)]})
	return len(a.nodes) - 1
}

// join appends a join of two nodes with equal bags, sharing the left
// child's bag.
func (a *niceArena) join(l, r int) int {
	a.children = append(a.children, l, r)
	k := len(a.children)
	a.nodes = append(a.nodes, NiceNode{Kind: KindJoin, Bag: a.nodes[l].Bag, Vertex: -1, Children: a.children[k-2 : k : k]})
	return len(a.nodes) - 1
}

// bag copies the sorted slice src into the bag arena without drop (-1:
// drop nothing) and with add inserted (-1: add nothing), and returns the
// copy capped at its length.
func (a *niceArena) bag(src []int, drop, add int) []int {
	lo := len(a.bags)
	for _, x := range src {
		if add >= 0 && add < x {
			a.bags = append(a.bags, add)
			add = -1
		}
		if x != drop {
			a.bags = append(a.bags, x)
		}
	}
	if add >= 0 {
		a.bags = append(a.bags, add)
	}
	return a.bags[lo:len(a.bags):len(a.bags)]
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
