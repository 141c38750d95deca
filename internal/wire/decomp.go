package wire

import (
	"fmt"

	"repro/internal/treewidth"
)

// Decomposition wire format. JSON mirrors the in-memory shape — bags as
// vertex-index lists plus the decomposition tree's edges:
//
//	{"bags": [[0,1,2],[1,2,3]], "edges": [[0,1]]}

// MaxDecompositionBags bounds the bag count the decoder accepts.
const MaxDecompositionBags = 1 << 22

// DecompositionJSON is the JSON form of a tree decomposition.
type DecompositionJSON struct {
	Bags  [][]int  `json:"bags"`
	Edges [][2]int `json:"edges"`
}

// DecompositionToJSON converts a decomposition into its JSON form.
func DecompositionToJSON(d *treewidth.Decomposition) DecompositionJSON {
	out := DecompositionJSON{Bags: make([][]int, len(d.Bags)), Edges: [][2]int{}}
	for b, bag := range d.Bags {
		out.Bags[b] = append([]int{}, bag...)
		for _, c := range d.Adj[b] {
			if b < c {
				out.Edges = append(out.Edges, [2]int{b, c})
			}
		}
	}
	return out
}

// ToDecomposition materializes the JSON form. Validity against a graph is
// a separate concern (treewidth.Validate); this checks shape only.
func (j DecompositionJSON) ToDecomposition() (*treewidth.Decomposition, error) {
	nb := len(j.Bags)
	if nb == 0 {
		return nil, fmt.Errorf("wire: decomposition has no bags")
	}
	if nb > MaxDecompositionBags {
		return nil, fmt.Errorf("wire: decomposition has %d bags (limit %d)", nb, MaxDecompositionBags)
	}
	d := &treewidth.Decomposition{
		Bags: make([][]int, nb),
		Adj:  make([][]int, nb),
	}
	for b, bag := range j.Bags {
		d.Bags[b] = append([]int{}, bag...)
	}
	for _, e := range j.Edges {
		if e[0] < 0 || e[0] >= nb || e[1] < 0 || e[1] >= nb {
			return nil, fmt.Errorf("wire: decomposition edge %v out of range [0,%d)", e, nb)
		}
		d.Adj[e[0]] = append(d.Adj[e[0]], e[1])
		d.Adj[e[1]] = append(d.Adj[e[1]], e[0])
	}
	return d, nil
}
