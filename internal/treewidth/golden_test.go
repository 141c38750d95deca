package treewidth

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
)

// TestProveGolden pins the tw-mso prover's certificates on heuristic
// decompositions of partial 2-trees with two hashes per case. The
// certificate hash is FNV-64a over every certificate's bytes (one byte
// per bit, as cert.Certificate stores them), each followed by one 0x09
// byte: it pins the certificates bit for bit, in the fixed-width layout
// (see encodePrefixTo). The payload hash (payloadHash) covers what
// DecodePayload reads back — bag id, depth, bag, row and witness word —
// and not how they are laid out. A layout change therefore re-records the
// certificate hashes alone, and an unchanged payload hash shows that no
// bag, depth, row or witness word moved. The payloads are the ones
// recorded before the validator, the nice conversion, the DP scratch and
// the payload assembly were rewritten for speed. 2-colorable is left
// out: partial 2-trees contain triangles, so it has nothing to certify.
// n=10⁵ is skipped under -short.
func TestProveGolden(t *testing.T) {
	for _, c := range []struct {
		n          int
		seed       int64
		prop       string
		hash, load uint64
	}{
		{300, 1, "tw-bound", 0xb3340920fe24ef2a, 0x3d9cafdcb320eb93},
		{300, 1, "3-colorable", 0xcd0e9b54754cd87c, 0x1dc4a202b60dd973},
		{300, 2, "tw-bound", 0x76fb5e162268b406, 0x7f1926ef2847f08e},
		{300, 2, "3-colorable", 0xc02bc7743202a41d, 0x771e7a454e5c5977},
		{5_000, 1, "tw-bound", 0x4afc6f5fa4ef9220, 0x33646bd6bd176aa3},
		{5_000, 1, "3-colorable", 0x5f5721bb97b5e1b2, 0x426bf265d7b3898f},
		{5_000, 2, "tw-bound", 0xb7005da4941fbd12, 0x8aef24ee78622e49},
		{5_000, 2, "3-colorable", 0xc174525467c3e2a7, 0x8614028afd6d1d89},
		{100_000, 1, "tw-bound", 0xdb358fb8bfbc5b5b, 0x2b7fbbc6763a8505},
		{100_000, 1, "3-colorable", 0x3283c7ff28588b30, 0x3d3eb6de2ce33a39},
	} {
		if c.n > 5_000 && testing.Short() {
			continue
		}
		g, _ := graphgen.PartialKTree(c.n, 2, 0.85, rand.New(rand.NewSource(c.seed)))
		prop, ok := PropertyByName(c.prop)
		if !ok {
			t.Fatalf("property %s missing", c.prop)
		}
		a, err := (&MSOScheme{T: 6, Prop: prop}).ProveCtx(context.Background(), g)
		if err != nil {
			t.Fatalf("n=%d seed %d %s: %v", c.n, c.seed, c.prop, err)
		}
		h := fnv.New64a()
		for _, cc := range a {
			h.Write(cc)
			h.Write([]byte{0x09})
		}
		if got := h.Sum64(); got != c.hash {
			t.Errorf("n=%d seed %d %s: certificate hash %016x, want %016x", c.n, c.seed, c.prop, got, c.hash)
		}
		if got := payloadHash(t, g, a, prop.Phi.NumSets()); got != c.load {
			t.Errorf("n=%d seed %d %s: payload hash %016x, want %016x", c.n, c.seed, c.prop, got, c.load)
		}
	}
}

// payloadHash is FNV-64a over every vertex's payload as DecodePayload
// reads it from a: the bag id, the depth, the bag's length and entries
// and the witness word as 8-byte little-endian words, the row as one
// byte per entry, and one 0x09 byte after each vertex.
func payloadHash(t *testing.T, g *graph.Graph, a cert.Assignment, setBits int) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf []byte
	for v, c := range a {
		p, ok := DecodePayload(c, g.IDOf(v), setBits)
		if !ok {
			t.Fatalf("certificate of vertex %d does not decode", v)
		}
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(p.BagID))
		buf = binary.LittleEndian.AppendUint64(buf, p.Depth)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.Bag)))
		for _, id := range p.Bag {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		}
		for _, b := range p.Row {
			if b {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, p.State)
		buf = append(buf, 0x09)
		h.Write(buf)
	}
	return h.Sum64()
}
