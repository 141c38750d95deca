package treewidth

import (
	"bytes"
	"maps"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitio"
	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/graphgen"
)

// wrappedBag is a payload whose second entry, math.MinInt64, wraps
// past math.MaxInt64 as an unsigned field and needs 64 bits.
var wrappedBag = Payload{
	BagID: math.MaxInt64,
	Bag:   []graph.ID{math.MaxInt64, math.MinInt64},
	Row:   []bool{false, false},
}

// Decoded identifiers must be positive graph.IDs: a bag with a negative
// entry needs a 64-bit entry field, which would decode unsorted or
// negative, breaking the sorted-bag invariant the verifier's scans rely
// on, so the decoder refuses every width above 63.
func TestDecodePayloadRejectsWrappedIDs(t *testing.T) {
	const owner = graph.ID(3)
	for name, p := range map[string]Payload{
		"min-int64-entry": wrappedBag,
		"negative-entry":  {BagID: 1, Bag: []graph.ID{1, -5}, Row: []bool{false, false}},
		"negative-bag-id": {BagID: math.MinInt64, Bag: []graph.ID{1}, Row: []bool{false}},
	} {
		if got, ok := DecodePayload(EncodePayload(p, owner, 0), owner, 0); ok {
			t.Errorf("%s: decoded %+v", name, got)
		}
	}
	// The largest positive identifiers still round-trip.
	p := Payload{BagID: 1, Depth: 2, Bag: []graph.ID{1, math.MaxInt64 - 1, math.MaxInt64}, Row: []bool{false, true, false}}
	got, ok := DecodePayload(EncodePayload(p, owner, 0), owner, 0)
	if !ok || !slices.Equal(got.Bag, p.Bag) || got.BagID != p.BagID || got.Depth != p.Depth {
		t.Fatalf("boundary bag: decoded %+v, ok=%v", got, ok)
	}
}

// hostileBody writes a certificate body field by field with no check on
// the values: the bag size and the entry width in Elias gamma, the
// entries at min(width, 64) bits each, the bag id index at
// bits.Len(size) bits, depth 2, and rowBits zero bits.
func hostileBody(size, width int, entries []uint64, index uint64, rowBits int) []byte {
	var w bitio.Writer
	w.WriteUvarint(uint64(size))
	w.WriteUvarint(uint64(width))
	for _, e := range entries {
		w.WriteUint(e, min(width, 64))
	}
	w.WriteUint(index, bits.Len(uint(size)))
	w.WriteUvarint(2)
	for range rowBits {
		w.WriteBit(0)
	}
	return w.Clone()
}

// hostileBodies are bodies around owner 7 that no decoder may accept,
// each breaking one field of the layout. The last claims a bag of
// maxBagEntries entries of maxIDBits bits and carries two bits per
// entry, fewer than the size·(width+1) its entries and row need.
var hostileBodies = map[string][]byte{
	"width-0":          hostileBody(1, 0, []uint64{0}, 0, 1),
	"width-64":         hostileBody(2, 64, []uint64{7, 1 << 63}, 0, 2),
	"width-65":         hostileBody(1, 65, nil, 0, 66),
	"zero-entry":       hostileBody(2, 3, []uint64{0, 7}, 1, 2),
	"equal-entries":    hostileBody(2, 3, []uint64{7, 7}, 0, 2),
	"descending":       hostileBody(2, 4, []uint64{9, 7}, 1, 2),
	"width-too-wide":   hostileBody(2, 5, []uint64{3, 7}, 1, 2),
	"index-at-size":    hostileBody(2, 3, []uint64{3, 7}, 2, 2),
	"header-past-body": hostileBody(maxBagEntries, maxIDBits, nil, 0, 2*maxBagEntries),
}

// sealed returns body sealed with owner's guard.
func sealed(body []byte, owner graph.ID) cert.Certificate {
	var w bitio.Writer
	for _, b := range body {
		w.WriteBit(b)
	}
	seal(&w, owner)
	return w.Clone()
}

// TestDecodeRefusesHostileFields: every hostile body, sealed for its
// owner, is refused by DecodePayload and marked malformed by the round
// parse, inline and with a spill, while a well-formed body written the
// same way decodes.
func TestDecodeRefusesHostileFields(t *testing.T) {
	const owner = graph.ID(7)
	parsed := func(c cert.Certificate, width int) bool {
		var rd parseRound
		rd.init(width, 0, 1)
		rd.parse(0, owner, c)
		rec, _, _ := rd.entry(0)
		return rec[recBagID] != 0
	}
	valid := sealed(hostileBody(2, 3, []uint64{3, 7}, 1, 2), owner)
	if p, ok := DecodePayload(valid, owner, 0); !ok || p.BagID != 7 || !slices.Equal(p.Bag, []graph.ID{3, 7}) || !parsed(valid, 2) {
		t.Fatalf("the control body decodes to %+v (ok=%v)", p, ok)
	}
	for name, body := range hostileBodies {
		c := sealed(body, owner)
		if p, ok := DecodePayload(c, owner, 0); ok {
			t.Errorf("%s: decoded %+v", name, p)
		}
		for _, width := range []int{2, maxBagEntries} {
			if parsed(c, width) {
				t.Errorf("%s: the round parse at T=%d accepted it", name, width)
			}
		}
	}
}

// FuzzDecodePayload hammers the tw-mso certificate decoders: the round
// parse (parseRound.parse), which /verify and /simulate feed
// client-supplied bits into, and the reference DecodePayload. Each input
// byte is one bit (b&1) of a certificate body; the target seals the body
// with the owner's guard, so the fuzzer explores the body decoder instead
// of colliding a 16-bit hash. setBits%4 is the property's set count. A
// successful decode must yield a positive bag id and a positive, strictly
// increasing bag, and must re-encode to exactly the same bits. The parse
// must agree with it: at T=2 and at a T whose bags spill, a one-slot
// round is well-formed exactly when the payload decodes with at most T+1
// bag entries including the owner, and then holds the same fields. The
// seeds are honest certificate bodies of a small partial 2-tree, the
// wrapped bag, a bag that spills and hostileBodies.
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
	// A bag of recordBag+2 entries holding the owner: it spills at T =
	// recordBag+1 and is too wide at T=2.
	wide := Payload{BagID: 1, Depth: 3, State: 2}
	for id := graph.ID(1); len(wide.Bag) < recordBag+2; id++ {
		wide.Bag = append(wide.Bag, id)
		wide.Row = append(wide.Row, id%3 == 0)
	}
	w.Reset()
	encodeBody(&w, wide, 2)
	f.Add(w.Clone(), uint8(2))
	for _, name := range slices.Sorted(maps.Keys(hostileBodies)) {
		f.Add(hostileBodies[name], uint8(0))
	}

	f.Fuzz(func(t *testing.T, data []byte, setBits uint8) {
		m := int(setBits % 4)
		var w bitio.Writer
		for _, b := range data {
			w.WriteBit(b & 1)
		}
		w.WriteUint(guardOf(owner, w.Bits()), guardBits)
		c := cert.Certificate(w.Clone())
		p, ok := DecodePayload(c, owner, m)
		for _, width := range []int{2, recordBag + 1} {
			var rd parseRound
			rd.init(width, m, 1)
			rd.parse(0, owner, c)
			rec, bag, row := rd.entry(0)
			wellFormed := ok && len(p.Bag) <= width+1 && slices.Contains(p.Bag, owner)
			if (rec[recBagID] != 0) != wellFormed {
				t.Fatalf("T=%d: round record bag id %d, decoded payload %+v (ok=%v)", width, rec[recBagID], p, ok)
			}
			if !wellFormed {
				continue
			}
			if rec[recBagID] != p.BagID || uint64(rec[recDepth]) != p.Depth || !slices.Equal(bag, p.Bag) || rd.word(0) != p.State {
				t.Fatalf("T=%d: round record %v (bag %v, word %d), payload %+v", width, rec[:recBag], bag, rd.word(0), p)
			}
			for k, b := range p.Row {
				if rowBit(row, k) != b {
					t.Fatalf("T=%d: row bit %d is %v, payload row %v", width, k, rowBit(row, k), p.Row)
				}
			}
		}
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
