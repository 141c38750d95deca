package spanning

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/graph"
	"repro/internal/graphgen"
)

// uvarints encodes values as consecutive bitio uvarints.
func uvarints(vs ...uint64) []byte {
	var w bitio.Writer
	for _, v := range vs {
		w.WriteUvarint(v)
	}
	return w.Clone()
}

// Decoded identifiers must be positive graph.IDs: a Root or Parent of
// 2^63 used to decode to math.MinInt64, and zero to 0, both with a nil
// error.
func TestDecodeRejectsNonPositiveIDs(t *testing.T) {
	for name, bits := range map[string][]byte{
		"root and parent 2^63": uvarints(1<<63, 1<<63, 0, 1),
		"root and parent zero": uvarints(0, 0, 0, 1),
		"root zero":            uvarints(0, 3, 1, 1),
		"parent 2^64-2":        uvarints(3, math.MaxUint64-1, 1, 1),
	} {
		if l, err := Decode(bitio.NewReader(bits)); err == nil {
			t.Errorf("%s: decoded %+v", name, l)
		}
	}
	// The largest positive identifier still round-trips.
	want := Label{Root: math.MaxInt64, Parent: math.MaxInt64, Dist: 0, Count: 1}
	var w bitio.Writer
	want.Encode(&w)
	if got, err := Decode(bitio.NewReader(w.Bits())); err != nil || got != want {
		t.Fatalf("boundary label: decoded %+v, err=%v", got, err)
	}
}

// FuzzDecodeLabel hammers the spanning-tree label decoder, which the
// spanning-tree scheme and core's existential-FO and depth-2 schemes
// feed client-supplied bits into. Each input byte is one bit (b&1). A
// successful decode must yield positive identifiers and must re-encode
// to exactly the bits it consumed. The seeds are honest labels of a
// random tree and a cycle plus the wrapped and the zero identifiers.
func FuzzDecodeLabel(f *testing.F) {
	for _, c := range []struct {
		g    *graph.Graph
		root int
	}{
		{graphgen.RandomTree(40, rand.New(rand.NewSource(4))), 0},
		{graphgen.Cycle(12), 5},
	} {
		labels, err := LabelsFor(c.g, c.root)
		if err != nil {
			f.Fatal(err)
		}
		for _, l := range labels {
			var w bitio.Writer
			l.Encode(&w)
			f.Add(w.Clone())
		}
	}
	f.Add(uvarints(1<<63, 1<<63, 0, 1))
	f.Add(uvarints(0, 0, 0, 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		bits := make([]byte, len(data))
		for i, b := range data {
			bits[i] = b & 1
		}
		r := bitio.NewReader(bits)
		l, err := Decode(r)
		if err != nil {
			return
		}
		if l.Root <= 0 || l.Parent <= 0 {
			t.Fatalf("non-positive identifier in %+v", l)
		}
		var w bitio.Writer
		l.Encode(&w)
		if consumed := bits[:len(bits)-r.Remaining()]; !bytes.Equal(w.Bits(), consumed) {
			t.Fatalf("re-encode differs:\n got %v\nwant %v", w.Bits(), consumed)
		}
	})
}
