package treewidth

import (
	"context"
	"fmt"
	"sort"

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
// Courcelle-style dynamic programs run over this form.
type Nice struct {
	Nodes []NiceNode
	Root  int
}

// NumNodes returns the node count.
func (n *Nice) NumNodes() int { return len(n.Nodes) }

// Width returns the width of the nice decomposition.
func (n *Nice) Width() int {
	w := -1
	for _, nd := range n.Nodes {
		if len(nd.Bag)-1 > w {
			w = len(nd.Bag) - 1
		}
	}
	return w
}

// MakeNiceCtx converts a valid tree decomposition rooted at the given bag
// into a nice decomposition of the same width: each original bag becomes a
// chain of forget/introduce nodes toward its children, multi-child bags
// fan out through binary joins, leaves shrink to empty bags through
// introduce chains, and the root grows a forget chain so the nice root's
// bag is empty. The per-bag conversion loop checkpoints the context, so
// abandoning the nice form of a million-bag decomposition costs at most
// one stride.
func MakeNiceCtx(ctx context.Context, d *Decomposition, root int) (*Nice, error) {
	parent, _, order, err := d.Rooted(root)
	if err != nil {
		return nil, err
	}
	children := make([][]int, len(d.Bags))
	for _, b := range order {
		if parent[b] >= 0 {
			children[parent[b]] = append(children[parent[b]], b)
		}
	}
	nice := &Nice{}
	cp := fault.NewCheckpoint(ctx, "decompose")
	var build func(b int) (int, error)
	// build returns the index of a nice node whose bag equals d.Bags[b].
	build = func(b int) (int, error) {
		if err := cp.Check(); err != nil {
			return 0, err
		}
		bag := append([]int(nil), d.Bags[b]...)
		kids := children[b]
		if len(kids) == 0 {
			// Introduce the bag vertex by vertex above an empty leaf.
			node := nice.add(NiceNode{Kind: KindLeaf, Vertex: -1})
			cur := []int{}
			for _, v := range bag {
				cur = insertSorted(cur, v)
				node = nice.addOwned(NiceNode{Kind: KindIntroduce, Bag: cur, Vertex: v, Children: []int{node}})
			}
			return node, nil
		}
		// One chain per child: from the child's bag, forget child∖bag,
		// then introduce bag∖child, ending exactly at this bag.
		tops := make([]int, 0, len(kids))
		for _, c := range kids {
			node, err := build(c)
			if err != nil {
				return 0, err
			}
			cur := append([]int(nil), d.Bags[c]...)
			for _, v := range diffSorted(d.Bags[c], bag) {
				cur = removeSorted(cur, v)
				node = nice.addOwned(NiceNode{Kind: KindForget, Bag: cur, Vertex: v, Children: []int{node}})
			}
			for _, v := range diffSorted(bag, d.Bags[c]) {
				cur = insertSorted(cur, v)
				node = nice.addOwned(NiceNode{Kind: KindIntroduce, Bag: cur, Vertex: v, Children: []int{node}})
			}
			tops = append(tops, node)
		}
		// Fold the chains with binary joins (sharing one bag copy — nice
		// bags are read-only once built).
		node := tops[0]
		for _, other := range tops[1:] {
			node = nice.addOwned(NiceNode{Kind: KindJoin, Bag: bag, Vertex: -1, Children: []int{node, other}})
		}
		return node, nil
	}
	top, err := build(root)
	if err != nil {
		return nil, err
	}
	// Forget the root bag down to empty.
	cur := append([]int(nil), d.Bags[root]...)
	for len(cur) > 0 {
		v := cur[len(cur)-1]
		cur = removeSorted(cur, v)
		top = nice.addOwned(NiceNode{Kind: KindForget, Bag: cur, Vertex: v, Children: []int{top}})
	}
	nice.Root = top
	return nice, nil
}

func (n *Nice) add(node NiceNode) int {
	if node.Bag == nil {
		node.Bag = []int{}
	} else {
		node.Bag = append([]int(nil), node.Bag...)
	}
	return n.addOwned(node)
}

// addOwned appends a node whose bag the caller hands over (already a
// fresh or shareable copy), skipping add's defensive re-copy — half of
// MakeNiceCtx's allocations on the prove hot path.
func (n *Nice) addOwned(node NiceNode) int {
	if node.Bag == nil {
		node.Bag = []int{}
	}
	n.Nodes = append(n.Nodes, node)
	return len(n.Nodes) - 1
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

// MaxDPStates bounds the per-node state tables of the dynamic programs:
// an m-set EMSO sentence enumerates 2^(m·(width+1)) states per bag.
const MaxDPStates = 1 << 20
