package registry

import (
	"runtime"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cert"
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
