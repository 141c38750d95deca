package treewidth

import (
	"context"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/graphgen"
)

// TestProveGolden pins the tw-mso prover's certificates, bit for bit, on
// heuristic decompositions of partial 2-trees: FNV-64a over every
// certificate's bytes (one byte per bit, as cert.Certificate stores
// them), each followed by one 0x09 byte. The constants are in the
// fixed-width layout (see encodePrefixTo); the payloads they encode —
// bags, depths, rows and witness words — are the ones recorded before the
// validator, the nice conversion, the DP scratch and the payload assembly
// were rewritten for speed, so a change to any of them that moves a
// single certificate bit fails here. 2-colorable is left
// out: partial 2-trees contain triangles, so it has nothing to certify.
// n=10⁵ is skipped under -short.
func TestProveGolden(t *testing.T) {
	for _, c := range []struct {
		n    int
		seed int64
		prop string
		hash uint64
	}{
		{300, 1, "tw-bound", 0xb3340920fe24ef2a},
		{300, 1, "3-colorable", 0xcd0e9b54754cd87c},
		{300, 2, "tw-bound", 0x76fb5e162268b406},
		{300, 2, "3-colorable", 0xc02bc7743202a41d},
		{5_000, 1, "tw-bound", 0x4afc6f5fa4ef9220},
		{5_000, 1, "3-colorable", 0x5f5721bb97b5e1b2},
		{5_000, 2, "tw-bound", 0xb7005da4941fbd12},
		{5_000, 2, "3-colorable", 0xc174525467c3e2a7},
		{100_000, 1, "tw-bound", 0xdb358fb8bfbc5b5b},
		{100_000, 1, "3-colorable", 0x3283c7ff28588b30},
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
	}
}
