package treewidth

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

// wrappedBag is the payload whose delta-encoded bag used to wrap: the
// second entry is encoded as a zero delta after math.MaxInt64, which a
// uint64 delta sum turns into math.MinInt64.
var wrappedBag = Payload{
	BagID: math.MaxInt64,
	Bag:   []graph.ID{math.MaxInt64, math.MinInt64},
	Row:   []bool{false, false},
}

// Decoded identifiers must be positive graph.IDs: a bag whose deltas
// wrap past math.MaxInt64 (or past uint64) would decode unsorted or
// negative, breaking the sorted-bag invariant the verifier's binary
// searches rely on.
func TestDecodePayloadRejectsWrappedIDs(t *testing.T) {
	const owner = graph.ID(3)
	for name, p := range map[string]Payload{
		"delta-past-maxint64": wrappedBag,
		"delta-past-uint64":   {BagID: 1, Bag: []graph.ID{1, -5}, Row: []bool{false, false}},
		"negative-bag-id":     {BagID: math.MinInt64, Bag: []graph.ID{1}, Row: []bool{false}},
	} {
		if got, ok := DecodePayload(EncodePayload(p, owner, 0), owner, 0); ok {
			t.Errorf("%s: decoded %+v", name, got)
		}
	}
	// The largest positive identifiers still round-trip.
	p := Payload{BagID: 1, Depth: 2, Bag: []graph.ID{1, math.MaxInt64 - 1, math.MaxInt64}, Row: []bool{false, true, false}}
	got, ok := DecodePayload(EncodePayload(p, owner, 0), owner, 0)
	if !ok || !equalIDs(got.Bag, p.Bag) || got.BagID != p.BagID || got.Depth != p.Depth {
		t.Fatalf("boundary bag: decoded %+v, ok=%v", got, ok)
	}
}

// FuzzDecodePayload hammers the tw-mso certificate decoder, which /verify
// and /simulate feed client-supplied bits into. Each input byte is one
// bit (b&1) of a certificate body; the target seals the body with the
// owner's guard, so the fuzzer explores the body decoder instead of
// colliding a 16-bit hash. setBits%4 is the property's set count. A
// successful decode must yield a positive bag id and a positive, strictly
// increasing bag, and must re-encode to exactly the same bits. The seeds
// are honest certificate bodies of a small partial 2-tree plus the
// wrapped bag.
func FuzzDecodePayload(f *testing.F) {
	const owner = graph.ID(7)
	g, attach := graphgen.PartialKTree(16, 2, 0.6, rand.New(rand.NewSource(5)))
	for _, name := range []string{"tw-bound", "3-colorable"} {
		prop, _ := PropertyByName(name)
		s := &MSOScheme{T: 2, Prop: prop, Decomps: DecompFunc(func(gg *graph.Graph) (*Decomposition, error) {
			return FromKTree(gg.N(), 2, attach)
		})}
		a, err := s.Prove(g)
		if err != nil {
			f.Fatal(err)
		}
		for _, c := range a {
			f.Add([]byte(c[:len(c)-guardBits]), uint8(prop.Phi.NumSets()))
		}
	}
	var w bitio.Writer
	encodeBody(&w, wrappedBag, 0)
	f.Add(w.Clone(), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, setBits uint8) {
		m := int(setBits % 4)
		var w bitio.Writer
		for _, b := range data {
			w.WriteBit(b & 1)
		}
		w.WriteUint(guardOf(owner, w.Bits()), guardBits)
		c := cert.Certificate(w.Clone())
		p, ok := DecodePayload(c, owner, m)
		if !ok {
			return
		}
		if p.BagID <= 0 {
			t.Fatalf("non-positive bag id %d", p.BagID)
		}
		for i, id := range p.Bag {
			if id <= 0 || (i > 0 && id <= p.Bag[i-1]) {
				t.Fatalf("bag %v is not positive and strictly increasing", p.Bag)
			}
		}
		if back := EncodePayload(p, owner, m); !bytes.Equal(back, c) {
			t.Fatalf("re-encode differs:\n got %v\nwant %v", back, c)
		}
	})
}
