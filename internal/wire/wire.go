// Package wire is the serialization layer of the certification engine,
// for the payloads that cross process boundaries: the JSON forms of the
// HTTP API — graphs as {"n", "ids"?, "edges"}, certificate assignments as
// arrays of "0101..." bit strings, verification results and tree
// decompositions — and the chunked binary graph stream (wire v2, see
// stream.go) for graphs too large to be pleasant as JSON. It also holds
// the generator, tamper and formula specs the CLI and server share.
package wire

import (
	"fmt"
	"strings"

	"repro/internal/cert"
	"repro/internal/graph"
)

// MaxGraphVertices bounds the vertex count every decoder accepts. The
// limit exists so a few-byte hostile header cannot force a huge
// allocation before any real data is validated.
const MaxGraphVertices = 1 << 24

// hasDefaultIDs reports whether g uses the default identifiers 1..n.
func hasDefaultIDs(g *graph.Graph) bool {
	for v := 0; v < g.N(); v++ {
		if g.IDOf(v) != graph.ID(v+1) {
			return false
		}
	}
	return true
}

// GraphJSON is the JSON form of a graph. IDs is omitted for the default
// identifiers 1..n.
type GraphJSON struct {
	N     int      `json:"n"`
	IDs   []int64  `json:"ids,omitempty"`
	Edges [][2]int `json:"edges"`
}

// GraphToJSON converts a graph into its JSON form.
func GraphToJSON(g *graph.Graph) GraphJSON {
	out := GraphJSON{N: g.N(), Edges: g.Edges()}
	if out.Edges == nil {
		out.Edges = [][2]int{}
	}
	if !hasDefaultIDs(g) {
		out.IDs = make([]int64, g.N())
		for v := 0; v < g.N(); v++ {
			out.IDs[v] = g.IDOf(v)
		}
	}
	return out
}

// ToGraph materializes the JSON form. Edges go through a graph.Builder,
// so any edge order costs O(n+m); range, self-loop and duplicate edges
// (in either orientation) are rejected.
func (j GraphJSON) ToGraph() (*graph.Graph, error) {
	if j.N < 0 || j.N > MaxGraphVertices {
		return nil, fmt.Errorf("wire: vertex count %d out of range [0, %d]", j.N, MaxGraphVertices)
	}
	var b *graph.Builder
	if len(j.IDs) > 0 {
		if len(j.IDs) != j.N {
			return nil, fmt.Errorf("wire: %d ids for %d vertices", len(j.IDs), j.N)
		}
		var err error
		b, err = graph.NewBuilderWithIDs(j.IDs)
		if err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	} else {
		b = graph.NewBuilder(j.N)
	}
	b.Grow(len(j.Edges))
	for _, e := range j.Edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("wire: %w", err)
		}
	}
	g, err := b.Finish()
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return g, nil
}

// AssignmentToStrings renders each certificate as a "0101..." bit string —
// the JSON form of an assignment.
func AssignmentToStrings(a cert.Assignment) []string {
	out := make([]string, len(a))
	for i, c := range a {
		var sb strings.Builder
		sb.Grow(len(c))
		for _, b := range c {
			if b != 0 {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		out[i] = sb.String()
	}
	return out
}

// AssignmentFromStrings parses the JSON bit-string form.
func AssignmentFromStrings(certs []string) (cert.Assignment, error) {
	a := make(cert.Assignment, len(certs))
	for i, s := range certs {
		c := make(cert.Certificate, len(s))
		for j := 0; j < len(s); j++ {
			switch s[j] {
			case '0':
				c[j] = 0
			case '1':
				c[j] = 1
			default:
				return nil, fmt.Errorf("wire: certificate %d: invalid bit character %q", i, s[j])
			}
		}
		a[i] = c
	}
	return a, nil
}

// ResultJSON is the JSON form of a verification result plus the
// certificate-size measures.
type ResultJSON struct {
	Accepted  bool  `json:"accepted"`
	Rejecters []int `json:"rejecters,omitempty"`
	MaxBits   int   `json:"max_bits"`
	TotalBits int   `json:"total_bits"`
}
