package minor

import (
	"bytes"
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

// oneEntry encodes a one-entry certificate around the given block
// certificate bits, whatever they hold.
func oneEntry(level, nonce uint64, block cert.Certificate) cert.Certificate {
	return append(uvarints(1, level, nonce, uint64(len(block))), block...)
}

// hostileEntries are ct-minor-free certificates whose length prefixes
// claim far more than their bits hold, or whose identifiers wrap past
// math.MaxInt64; decodeEntries must reject each.
var hostileEntries = map[string]cert.Certificate{
	"entry count 2^20":       uvarints(1 << 20),
	"entry length 2^24":      uvarints(1, 0, 1, 1<<24),
	"nonce 2^63":             oneEntry(0, 1<<63, uvarints(1, 1)),
	"nonce zero":             oneEntry(0, 0, uvarints(1, 1)),
	"nested list 2^16":       oneEntry(0, 1, uvarints(1<<16)),
	"nested list entry 2^63": oneEntry(0, 1, uvarints(1, 1<<63)),
}

func TestDecodeEntriesRejectsHostileCertificates(t *testing.T) {
	if _, ok := decodeEntries(oneEntry(0, 1, uvarints(1, 1))); !ok {
		t.Fatal("well-formed control entry rejected")
	}
	for name, c := range hostileEntries {
		if entries, ok := decodeEntries(c); ok {
			t.Errorf("%s: decoded %+v", name, entries)
		}
	}
}

// FuzzDecodeEntries hammers the ct-minor-free certificate decoder, which
// /verify and /simulate feed client-supplied bits into once per view.
// Each input byte is one bit (b&1) of a certificate. A successful decode
// must yield positive nonces and gates and non-empty ancestor lists, and
// must re-encode to exactly the same bits. The seeds are honest
// certificates of a cactus and a path plus the hostile certificates.
func FuzzDecodeEntries(f *testing.F) {
	s, err := NewCycleMinorFreeScheme(4)
	if err != nil {
		f.Fatal(err)
	}
	for _, g := range []*graph.Graph{cactus(4), graphgen.Path(6)} {
		a, err := s.Prove(g)
		if err != nil {
			f.Fatal(err)
		}
		for _, c := range a {
			f.Add([]byte(c))
		}
	}
	for _, c := range hostileEntries {
		f.Add([]byte(c))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := make(cert.Certificate, len(data))
		for i, b := range data {
			c[i] = b & 1
		}
		entries, ok := decodeEntries(c)
		if !ok {
			return
		}
		for _, e := range entries {
			if e.nonce <= 0 || e.gateID <= 0 || e.listLen < 1 {
				t.Fatalf("entry %+v: non-positive nonce or gate, or empty list", e)
			}
		}
		if back := encodeEntries(entries); !bytes.Equal(back, c) {
			t.Fatalf("re-encode differs:\n got %v\nwant %v", back, c)
		}
	})
}
