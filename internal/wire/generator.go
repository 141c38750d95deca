package wire

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/rooted"
	"repro/internal/treedepth"
	"repro/internal/treewidth"
)

// GeneratorSpec describes a graph to generate server-side instead of
// shipping it over the wire — the batch API's way of certifying whole
// families. It is also the one graph-kind switch cmd/certify uses, so the
// CLI and the server accept the same family names.
type GeneratorSpec struct {
	// Kind is one of GeneratorKinds.
	Kind string `json:"kind"`
	// N is the number of vertices.
	N int `json:"n"`
	// T is the treedepth bound for "random-td" and the clique size k for
	// "k-tree" / "partial-k-tree" (ground-truth treewidth <= k).
	T int `json:"t,omitempty"`
	// Density is the extra-edge density for "random-td" (default 0.3) and
	// the edge-keep probability for "partial-k-tree" (default 0.5).
	Density float64 `json:"density,omitempty"`
	// Seed drives the random kinds; deterministic per spec.
	Seed int64 `json:"seed,omitempty"`
}

// Witness carries the ground-truth structure a generator knows about the
// graph it built: an elimination-tree model for treedepth-style schemes
// and/or a tree decomposition for treewidth-style schemes. Callers attach
// each part only to schemes whose registry entry declares it can use it
// (UsesWitness, UsesDecomposition) — a witness makes the built scheme
// graph-specific and uncacheable.
type Witness struct {
	// Model supplies the elimination tree ("random-td").
	Model func(*graph.Graph) (*rooted.Tree, error)
	// Decomp supplies the tree decomposition ("k-tree", "partial-k-tree").
	Decomp func(*graph.Graph) (*treewidth.Decomposition, error)
}

// GeneratorKinds lists the supported family names.
func GeneratorKinds() []string {
	return []string{"path", "cycle", "star", "random-tree", "random-td", "k-tree", "partial-k-tree"}
}

// MaxGeneratedVertices bounds server-side generation.
const MaxGeneratedVertices = 1 << 20

// MaxGeneratedEdges bounds the edge count a generator spec may imply.
// Every O(n) family is covered by MaxGeneratedVertices alone, but a
// k-tree builds C(k+1,2) + (n-k-1)k edges — without this cap a single
// request with a large clique size could allocate terabytes before any
// later limit is consulted.
const MaxGeneratedEdges = 1 << 24

// Validate checks the spec without building anything, so request
// handlers can reject bad specs up front and defer the (potentially
// large) construction to a worker.
func (s GeneratorSpec) Validate() error {
	if s.N <= 0 {
		return fmt.Errorf("wire: generator %q: n must be positive, got %d", s.Kind, s.N)
	}
	if s.N > MaxGeneratedVertices {
		return fmt.Errorf("wire: generator %q: n=%d exceeds limit %d", s.Kind, s.N, MaxGeneratedVertices)
	}
	switch s.Kind {
	case "path", "cycle", "star", "random-tree":
		return nil
	case "random-td":
		if s.T <= 0 {
			return fmt.Errorf("wire: generator random-td: t must be positive, got %d", s.T)
		}
		return nil
	case "k-tree", "partial-k-tree":
		if s.T <= 0 {
			return fmt.Errorf("wire: generator %s: t (the clique size k) must be positive, got %d", s.Kind, s.T)
		}
		if s.N < s.T+1 {
			return fmt.Errorf("wire: generator %s: n=%d below k+1=%d", s.Kind, s.N, s.T+1)
		}
		k, n := int64(s.T), int64(s.N)
		if edges := k*(k+1)/2 + (n-k-1)*k; edges > MaxGeneratedEdges {
			return fmt.Errorf("wire: generator %s: n=%d k=%d implies %d edges (limit %d)",
				s.Kind, s.N, s.T, edges, MaxGeneratedEdges)
		}
		return nil
	default:
		return fmt.Errorf("wire: unknown generator kind %q (known: %v)", s.Kind, GeneratorKinds())
	}
}

// randPool recycles the random sources of the random kinds: a math/rand
// source is a 4.9 KB state, and one reseeded with Seed yields exactly the
// sequence of a fresh rand.NewSource(seed).
var randPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Build materializes the spec together with the witness structure the
// generator knows; the witness parts are nil for kinds without one. The
// random kinds draw from a pooled source reseeded with s.Seed, returned
// once the graph is built: no witness keeps it.
func (s GeneratorSpec) Build() (*graph.Graph, Witness, error) {
	if err := s.Validate(); err != nil {
		return nil, Witness{}, err
	}
	switch s.Kind {
	case "path":
		return graphgen.Path(s.N), Witness{}, nil
	case "cycle":
		return graphgen.Cycle(s.N), Witness{}, nil
	case "star":
		return graphgen.Star(s.N), Witness{}, nil
	}
	rng := randPool.Get().(*rand.Rand)
	defer randPool.Put(rng)
	rng.Seed(s.Seed)
	switch s.Kind {
	case "random-tree":
		return graphgen.RandomTree(s.N, rng), Witness{}, nil
	case "random-td":
		density := s.Density
		if density == 0 {
			density = 0.3
		}
		g, parents := graphgen.BoundedTreedepth(s.N, s.T, density, rng)
		w := Witness{Model: func(gg *graph.Graph) (*rooted.Tree, error) {
			return treedepth.FromParentSlice(gg, parents)
		}}
		return g, w, nil
	case "k-tree", "partial-k-tree":
		var g *graph.Graph
		var attach [][]int
		if s.Kind == "k-tree" {
			g, attach = graphgen.KTree(s.N, s.T, rng)
		} else {
			keep := s.Density
			if keep == 0 {
				keep = 0.5
			}
			g, attach = graphgen.PartialKTree(s.N, s.T, keep, rng)
		}
		k := s.T
		w := Witness{Decomp: func(gg *graph.Graph) (*treewidth.Decomposition, error) {
			return treewidth.FromKTree(gg.N(), k, attach)
		}}
		return g, w, nil
	default:
		return nil, Witness{}, fmt.Errorf("wire: unknown generator kind %q (known: %v)", s.Kind, GeneratorKinds())
	}
}
