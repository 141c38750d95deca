package wire

import "repro/internal/treewidth"

// Decomposition wire format. JSON mirrors the in-memory shape — bags as
// vertex-index lists plus the decomposition tree's edges:
//
//	{"bags": [[0,1,2],[1,2,3]], "edges": [[0,1]]}

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
