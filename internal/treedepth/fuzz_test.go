package treedepth

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
)

// uvarints encodes values as consecutive bitio uvarints.
func uvarints(vs ...uint64) cert.Certificate {
	var w bitio.Writer
	for _, v := range vs {
		w.WriteUvarint(v)
	}
	return w.Clone()
}

// Decoded identifiers must be positive graph.IDs: an ancestor list entry
// or tree-label identifier above math.MaxInt64 used to decode to a
// negative ID with ok=true.
func TestDecodePayloadRejectsWrappedIDs(t *testing.T) {
	for name, c := range map[string]cert.Certificate{
		"list entry 2^63":    uvarints(1, 1<<63),
		"list entry zero":    uvarints(1, 0),
		"tree root 2^63":     uvarints(2, 1, 2, 1<<63, 2, 1),
		"tree parent 2^63":   uvarints(2, 1, 2, 2, 1<<63, 1),
		"tree parent zero":   uvarints(2, 1, 2, 2, 0, 1),
		"list length > bits": uvarints(1 << 16),
	} {
		if p, ok := DecodePayload(c); ok {
			t.Errorf("%s: decoded %+v", name, p)
		}
	}
	// The largest positive identifier still round-trips.
	p := Payload{List: []graph.ID{math.MaxInt64, 1}, Trees: []TreeLabel{{Root: math.MaxInt64, Parent: math.MaxInt64, Dist: 0}}}
	got, ok := DecodePayload(EncodePayload(p))
	if !ok || got.List[0] != math.MaxInt64 || got.Trees[0] != p.Trees[0] {
		t.Fatalf("boundary payload: decoded %+v, ok=%v", got, ok)
	}
}

// FuzzDecodePayload hammers the Theorem 2.4 payload decoder, which the
// treedepth, kernel-mso and pt-minor-free verifiers and every
// ct-minor-free block entry feed client-supplied bits into. Each input
// byte is one bit (b&1) of a certificate. A successful decode must
// yield positive identifiers and one tree label per non-root ancestor,
// and must re-encode to exactly the same bits. The seeds are honest
// certificates of a bounded-treedepth graph plus a list length no
// certificate of its size can hold and a list entry past math.MaxInt64.
func FuzzDecodePayload(f *testing.F) {
	g, _ := graphgen.BoundedTreedepth(24, 4, 0.3, rand.New(rand.NewSource(3)))
	a, err := (&Scheme{T: 4}).Prove(g)
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range a {
		f.Add([]byte(c))
	}
	f.Add([]byte(uvarints(1 << 16)))
	f.Add([]byte(uvarints(1, 1<<63)))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := make(cert.Certificate, len(data))
		for i, b := range data {
			c[i] = b & 1
		}
		p, ok := DecodePayload(c)
		if !ok {
			return
		}
		if len(p.List) == 0 || len(p.Trees) != len(p.List)-1 {
			t.Fatalf("list of %d with %d tree labels", len(p.List), len(p.Trees))
		}
		for _, id := range p.List {
			if id <= 0 {
				t.Fatalf("non-positive list entry in %v", p.List)
			}
		}
		for _, tl := range p.Trees {
			if tl.Root <= 0 || tl.Parent <= 0 {
				t.Fatalf("non-positive tree label %+v", tl)
			}
		}
		if back := EncodePayload(p); !bytes.Equal(back, c) {
			t.Fatalf("re-encode differs:\n got %v\nwant %v", back, c)
		}
	})
}
