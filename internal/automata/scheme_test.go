package automata

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
	"repro/internal/logic"
)

// constantScheme is a scheme with a fixed certificate width.
type constantScheme interface {
	cert.Scheme
	CertificateBits() int
}

// TestTreeSchemeGolden pins the Theorem 2.2 schemes bit for bit: for each
// tree-mso library property and two tree-fo sentences, FNV-64a over the
// scheme's name and certificate width and, on every input tree, the
// Holds verdict, every certificate of the honest proof (one byte per
// bit, each followed by 0x09) or the prover's refusal, the honest
// round's verdict, and the verdict and rejecters of every one-bit flip
// of one vertex's certificate. The inputs are seeded random trees,
// paths and stars. The constants were recorded before the hand-built and
// the discovered automata were merged into one scheme.
func TestTreeSchemeGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var inputs []*graph.Graph
	for i := 0; i < 40; i++ {
		inputs = append(inputs, graphgen.RandomTree(2+rng.Intn(40), rng))
	}
	for n := 1; n <= 24; n++ {
		inputs = append(inputs, graphgen.Path(n), graphgen.Star(n))
	}
	typeScheme := func(src string) func() (constantScheme, error) {
		return func() (constantScheme, error) { return NewTypeScheme(logic.MustParse(src)) }
	}
	for _, c := range []struct {
		name  string
		build func() (constantScheme, error)
		hash  uint64
	}{
		{"perfect-matching", func() (constantScheme, error) { return NewPerfectMatchingScheme() }, 0x567d6dd7e41f66a7},
		{"is-star", func() (constantScheme, error) { return NewStarScheme() }, 0xf909874fc1a8b4e2},
		{"max-degree-<=2", func() (constantScheme, error) { return NewMaxDegreeScheme(2) }, 0x394aa9e1ceb2d81c},
		{"max-degree-<=3", func() (constantScheme, error) { return NewMaxDegreeScheme(3) }, 0x7f6b4728c10e2f27},
		{"diameter-<=4", func() (constantScheme, error) { return NewDiameterScheme(4) }, 0x7dc39c3155e72756},
		{"leaves->=3", func() (constantScheme, error) { return NewLeavesAtLeastScheme(3) }, 0xbf2fa8cbce884754},
		{"forall x. exists y. x ~ y", typeScheme("forall x. exists y. x ~ y"), 0x062d0943e41be8e4},
		{"exists x. forall y. x = y | x ~ y", typeScheme("exists x. forall y. x = y | x ~ y"), 0x4c20173fac4a90fd},
	} {
		s, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "%s %d\n", s.Name(), s.CertificateBits())
		for i, g := range inputs {
			holds, err := s.Holds(g)
			if err != nil {
				t.Fatalf("%s: Holds: %v", c.name, err)
			}
			fmt.Fprintf(h, "holds %v\n", holds)
			a, err := s.Prove(g)
			if err != nil {
				fmt.Fprintf(h, "refused\n")
				continue
			}
			for _, cc := range a {
				h.Write(cc)
				h.Write([]byte{0x09})
			}
			res, err := cert.RunSequential(g, s, a)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "accepted %v\n", res.Accepted)
			v := i % g.N()
			for bit := range a[v] {
				b := a.Clone()
				b[v][bit] ^= 1
				res, err := cert.RunSequential(g, s, b)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "flip %d.%d %v %v\n", v, bit, res.Accepted, res.Rejecters)
			}
		}
		if got := h.Sum64(); got != c.hash {
			t.Errorf("%s: hash %016x, want %016x", c.name, got, c.hash)
		}
	}
}

// BenchmarkTreeSchemeVerify times one sequential verification round of
// the Theorem 2.2 scheme over a hand-built automaton and over a
// discovered one.
func BenchmarkTreeSchemeVerify(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() (cert.Scheme, error)
		g     *graph.Graph
	}{
		{"tree-mso/perfect-matching/path64", func() (cert.Scheme, error) { return NewPerfectMatchingScheme() }, graphgen.Path(64)},
		{"tree-fo/forall-exists-adj/tree16", func() (cert.Scheme, error) {
			return NewTypeScheme(logic.MustParse("forall x. exists y. x ~ y"))
		}, graphgen.RandomTree(16, rand.New(rand.NewSource(1)))},
	} {
		b.Run(c.name, func(b *testing.B) {
			s, err := c.build()
			if err != nil {
				b.Fatal(err)
			}
			a, err := s.Prove(c.g)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cert.RunSequential(c.g, s, a)
				if err != nil || !res.Accepted {
					b.Fatalf("honest round: accepted %v, %v", res.Accepted, err)
				}
			}
		})
	}
}
