package registry

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
)

// uvarints encodes values as consecutive bitio uvarints: the length
// prefixes of every certificate decoder below.
func uvarints(vs ...uint64) cert.Certificate {
	var w bitio.Writer
	for _, v := range vs {
		w.WriteUvarint(v)
	}
	return w.Clone()
}

// TestHostileLengthPrefixesAllocateLittle submits certificates of a few
// dozen bits whose length prefixes claim up to 2^24 elements. /verify and
// /simulate hand such bits to the decoders once per view they appear
// in, so each must be rejected without allocating for the claim.
func TestHostileLengthPrefixesAllocateLittle(t *testing.T) {
	// A treedepth payload claiming a 2^16-entry ancestor list (33 bits).
	longList := uvarints(1 << 16)
	// One ct-minor-free block entry (level 0, nonce 1) wrapping bits.
	entry := func(bits cert.Certificate) cert.Certificate {
		c := uvarints(1, 0, 1, uint64(len(bits)))
		return append(c, bits...)
	}
	cases := []struct {
		name   string
		scheme string
		params Params
		c      cert.Certificate
	}{
		{"minor entry count 2^20", "ct-minor-free", Params{T: 4}, uvarints(1 << 20)},
		{"minor entry length 2^24", "ct-minor-free", Params{T: 4}, uvarints(1, 0, 1, 1<<24)},
		{"minor entry holding a long list", "ct-minor-free", Params{T: 4}, entry(longList)},
		{"universal vertex count 2^20", "universal", Params{Property: "connected"}, uvarints(1 << 20)},
		{"treedepth list length 2^16", "treedepth", Params{T: 3}, longList},
		{"kernel-mso list length 2^16", "kernel-mso", Params{T: 3, Formula: "forall x. exists y. x ~ y"}, longList},
		{"pt-minor-free list length 2^16", "pt-minor-free", Params{T: 4}, longList},
	}
	const maxBytes = 64 << 10
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Default().Build(tc.scheme, tc.params)
			if err != nil {
				t.Fatal(err)
			}
			view := cert.View{ID: 1, Cert: tc.c, Neighbors: []cert.NeighborView{{ID: 2, Cert: tc.c}}}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ok := s.Verify(view)
			runtime.ReadMemStats(&after)
			if ok {
				t.Fatalf("%d-bit hostile certificate accepted", len(tc.c))
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > maxBytes {
				t.Fatalf("rejecting a %d-bit certificate allocated %d bytes (bound %d)", len(tc.c), got, maxBytes)
			}
		})
	}
}

// hostileCase is one registry scheme with an honest proof on a small
// yes-instance, and the bytes an honest sequential round allocates.
type hostileCase struct {
	s      cert.Scheme
	g      *graph.Graph
	honest cert.Assignment
	base   uint64
}

// roundAlloc runs one sequential verification round and returns the
// bytes it allocated.
func roundAlloc(g *graph.Graph, s cert.Scheme, a cert.Assignment) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := cert.RunSequential(g, s, a)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// hostileCases proves every registry scheme honestly, in registry name
// order: a random 12-vertex tree for all but pt-minor-free, which needs
// a graph without long paths.
func hostileCases(f *testing.F) []hostileCase {
	tree := graphgen.RandomTree(12, rand.New(rand.NewSource(1)))
	specs := map[string]struct {
		params Params
		g      *graph.Graph
	}{
		"tree-mso":       {Params{Property: "leaves->=3"}, tree},
		"tree-fo":        {Params{Formula: "forall x. exists y. x ~ y"}, tree},
		"treedepth":      {Params{T: 4}, tree},
		"kernel-mso":     {Params{T: 4, Formula: "forall x. exists y. x ~ y"}, tree},
		"pt-minor-free":  {Params{T: 4}, graphgen.Star(12)},
		"ct-minor-free":  {Params{T: 4}, tree},
		"universal":      {Params{Property: "connected"}, tree},
		"existential-fo": {Params{Formula: "exists x. exists y. x ~ y"}, tree},
		"depth2-fo":      {Params{Formula: "forall x. exists y. x ~ y"}, tree},
		"tw-mso":         {Params{Property: "2-colorable", T: 1}, tree},
	}
	var out []hostileCase
	for _, name := range Default().Names() {
		sp, ok := specs[name]
		if !ok {
			f.Fatalf("no hostile case for registry scheme %s", name)
		}
		s, err := Default().Build(name, sp.params)
		if err != nil {
			f.Fatal(err)
		}
		a, res, err := cert.ProveAndVerify(sp.g, s)
		if err != nil || !res.Accepted {
			f.Fatalf("%s: honest round: accepted %v, %v", name, res.Accepted, err)
		}
		base, err := roundAlloc(sp.g, s, a)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, hostileCase{s: s, g: sp.g, honest: a, base: base})
	}
	return out
}

// FuzzVerifyHostile submits hostile bits as one vertex's certificate in
// an otherwise honest assignment, for every registry scheme, and runs a
// sequential verification round: every decoder a submitted certificate
// reaches must reject or accept without panicking, and the round may
// allocate only a bounded amount per input bit on top of an honest
// round (each of the deg+1 views holding the certificate may decode it).
// The corpus is seeded with the honest certificates.
func FuzzVerifyHostile(f *testing.F) {
	cases := hostileCases(f)
	for i, c := range cases {
		for v, bits := range c.honest {
			f.Add(uint8(i), uint8(v), []byte(bits))
		}
	}
	const slack, perBit = 64 << 10, 1 << 10
	f.Fuzz(func(t *testing.T, scheme, vertex uint8, data []byte) {
		c := cases[int(scheme)%len(cases)]
		a := slices.Clone(c.honest)
		bits := make(cert.Certificate, len(data))
		for i, b := range data {
			bits[i] = b & 1
		}
		a[int(vertex)%len(a)] = bits
		got, err := roundAlloc(c.g, c.s, a)
		if err != nil {
			t.Fatalf("%s: %v", c.s.Name(), err)
		}
		if bound := 2*c.base + slack + perBit*uint64(len(bits)); got > bound {
			t.Fatalf("%s: a %d-bit certificate made the round allocate %d bytes (bound %d)", c.s.Name(), len(bits), got, bound)
		}
	})
}
