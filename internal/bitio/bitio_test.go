package bitio

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	var w Writer
	pattern := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if w.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", w.Len(), len(pattern))
	}
	r := NewReader(w.Bits())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit #%d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit #%d = %d, want %d", i, got, want)
		}
	}
	if _, err := r.ReadBit(); err != ErrOutOfBits {
		t.Fatalf("reading past end: err = %v, want ErrOutOfBits", err)
	}
}

func TestWriteBitNormalizesNonZero(t *testing.T) {
	var w Writer
	w.WriteBit(7)
	r := NewReader(w.Bits())
	b, err := r.ReadBit()
	if err != nil || b != 1 {
		t.Fatalf("got (%d, %v), want (1, nil)", b, err)
	}
}

func TestWriteReadUint(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
	}{
		{0, 1}, {1, 1}, {5, 3}, {255, 8}, {256, 9},
		{math.MaxUint64, 64}, {0, 64}, {1 << 40, 41},
	}
	for _, c := range cases {
		var w Writer
		w.WriteUint(c.v, c.width)
		if w.Len() != c.width {
			t.Errorf("WriteUint(%d,%d): Len = %d", c.v, c.width, w.Len())
		}
		got, err := NewReader(w.Bits()).ReadUint(c.width)
		if err != nil {
			t.Errorf("ReadUint(%d): %v", c.width, err)
		}
		if got != c.v {
			t.Errorf("roundtrip(%d,%d) = %d", c.v, c.width, got)
		}
	}
}

// TestReadNonZeroBytesAsOnes: every non-zero byte reads as a 1 bit, on
// the eight-byte steps of ReadUint and ReadUvarint as on the byte-by-byte
// tail. Each row is a field of some width after a prefix of offset bits,
// so fields straddle eight-byte steps at every alignment; the field's
// bytes are arbitrary non-zero values and must read as all ones.
func TestReadNonZeroBytesAsOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nonZero := func(n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(1 + rng.Intn(255))
		}
		return out
	}
	for _, width := range []int{8, 9, 16, 17, 64} {
		for offset := 0; offset < 8; offset++ {
			data := append(make([]byte, offset), nonZero(width)...)
			r := NewReader(data)
			if _, err := r.ReadUint(offset); err != nil {
				t.Fatal(err)
			}
			want := uint64(math.MaxUint64) >> (64 - width)
			if got, err := r.ReadUint(width); err != nil || got != want {
				t.Errorf("width %d after %d bits: ReadUint = (%#x, %v), want %#x", width, offset, got, err, want)
			}
			// A uvarint of width-1 prefix bits, all non-zero bytes, then a
			// zero and width-1 non-zero value bits reads as 2^width - 2.
			if width < 64 {
				data = append(append(make([]byte, offset), nonZero(width-1)...), 0)
				data = append(data, nonZero(width-1)...)
				r = NewReader(data)
				if _, err := r.ReadUint(offset); err != nil {
					t.Fatal(err)
				}
				if got, err := r.ReadUvarint(); err != nil || got != 1<<width-2 {
					t.Errorf("width %d after %d bits: ReadUvarint = (%d, %v), want %d", width, offset, got, err, uint64(1)<<width-2)
				}
			}
		}
	}
}

func TestWriteUintPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for value not fitting width")
		}
	}()
	var w Writer
	w.WriteUint(4, 2)
}

func TestWriteUintPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for width > 64")
		}
	}()
	var w Writer
	w.WriteUint(0, 65)
}

func TestUvarintRoundtrip(t *testing.T) {
	values := []uint64{0, 1, 2, 3, 7, 8, 100, 1023, 1024, 1 << 32, math.MaxUint64 - 1}
	for _, v := range values {
		var w Writer
		w.WriteUvarint(v)
		got, err := NewReader(w.Bits()).ReadUvarint()
		if err != nil {
			t.Fatalf("ReadUvarint(%d): %v", v, err)
		}
		if got != v {
			t.Fatalf("uvarint roundtrip %d = %d", v, got)
		}
	}
}

func TestUvarintSizeIsLogarithmic(t *testing.T) {
	// Elias-gamma style: 2*bitlen(v+1)-1 bits.
	for _, v := range []uint64{0, 1, 7, 127, 1 << 20} {
		var w Writer
		w.WriteUvarint(v)
		want := 2*bits.Len64(v+1) - 1
		if w.Len() != want {
			t.Errorf("uvarint(%d) uses %d bits, want %d", v, w.Len(), want)
		}
	}
}

func TestWriteUvarintPanicsOnMaxUint64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for math.MaxUint64, whose v+1 overflows")
		}
	}()
	var w Writer
	w.WriteUvarint(math.MaxUint64)
}

func TestUvarintQuick(t *testing.T) {
	f := func(v uint64) bool {
		var w Writer
		w.WriteUvarint(v)
		got, err := NewReader(w.Bits()).ReadUvarint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUintQuick(t *testing.T) {
	f := func(v uint64, shift uint8) bool {
		width := int(shift%64) + 1
		v &= (1<<uint(width) - 1) // mask to width bits
		var w Writer
		w.WriteUint(v, width)
		got, err := NewReader(w.Bits()).ReadUint(width)
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixedStreamQuick(t *testing.T) {
	f := func(a uint64, b bool, c uint64) bool {
		c &= 0xFFFF
		var w Writer
		w.WriteUvarint(a)
		w.WriteBool(b)
		w.WriteUint(c, 16)
		r := NewReader(w.Bits())
		ga, err1 := r.ReadUvarint()
		gb, err2 := r.ReadBool()
		gc, err3 := r.ReadUint(16)
		return err1 == nil && err2 == nil && err3 == nil &&
			ga == a && gb == b && gc == c && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteBytesOf(t *testing.T) {
	var a, b Writer
	a.WriteUint(5, 3)
	b.WriteUint(2, 2)
	a.WriteBytesOf(&b)
	r := NewReader(a.Bits())
	x, _ := r.ReadUint(3)
	y, _ := r.ReadUint(2)
	if x != 5 || y != 2 {
		t.Fatalf("got (%d,%d), want (5,2)", x, y)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	var w Writer
	w.WriteUint(3, 2)
	c := w.Clone()
	w.WriteBit(1)
	if len(c) != 2 {
		t.Fatalf("clone length changed: %d", len(c))
	}
}

func TestUintWidth(t *testing.T) {
	cases := []struct {
		max  uint64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}}
	for _, c := range cases {
		if got := UintWidth(c.max); got != c.want {
			t.Errorf("UintWidth(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestReadUintBadWidth(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.ReadUint(65); err == nil {
		t.Fatal("expected error for width > 64")
	}
}

func TestMalformedUvarint(t *testing.T) {
	// 70 ones: length prefix longer than 64 must be rejected.
	bits := make([]byte, 70)
	for i := range bits {
		bits[i] = 1
	}
	if _, err := NewReader(bits).ReadUvarint(); err == nil {
		t.Fatal("expected error for malformed uvarint")
	}
}

// refReader is the per-bit reference reader: every field is a loop of
// single-bit reads. FuzzReader holds Reader to it value for value, error
// for error and position for position.
type refReader struct {
	bits []byte
	pos  int
}

func (r *refReader) Remaining() int { return len(r.bits) - r.pos }

func (r *refReader) ReadBit() (byte, error) {
	if r.pos >= len(r.bits) {
		return 0, ErrOutOfBits
	}
	b := r.bits[r.pos]
	r.pos++
	if b != 0 {
		b = 1
	}
	return b, nil
}

func (r *refReader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b != 0, err
}

func (r *refReader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	var v uint64
	for i := 0; i < width; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refReader) ReadUvarint() (uint64, error) {
	n := 1
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			break
		}
		n++
		if n > 64 {
			return 0, errors.New("bitio: malformed uvarint (length prefix too long)")
		}
	}
	v := uint64(1)
	for i := 0; i < n-1; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v - 1, nil
}

// refWriteUint and refWriteUvarint are the per-bit reference writers:
// one append per bit.
func refWriteUint(out []byte, v uint64, width int) []byte {
	for i := width - 1; i >= 0; i-- {
		out = append(out, byte(v>>uint(i)&1))
	}
	return out
}

func refWriteUvarint(out []byte, v uint64) []byte {
	n := bits.Len64(v + 1)
	for i := 0; i < n-1; i++ {
		out = append(out, 1)
	}
	out = append(out, 0)
	for i := n - 2; i >= 0; i-- {
		out = append(out, byte((v+1)>>uint(i)&1))
	}
	return out
}

// TestWriterMatchesReferenceQuick writes random field sequences through
// Writer and through the per-bit reference writer and requires the same
// bit strings.
func TestWriterMatchesReferenceQuick(t *testing.T) {
	f := func(vals []uint64, widths []uint8) bool {
		var w Writer
		var ref []byte
		for i, v := range vals {
			if i < len(widths) {
				width := int(widths[i] % 65)
				if width < 64 {
					v &= 1<<uint(width) - 1
				}
				w.WriteUint(v, width)
				ref = refWriteUint(ref, v, width)
			}
			if v == math.MaxUint64 {
				v--
			}
			w.WriteUvarint(v >> (i % 64))
			ref = refWriteUvarint(ref, v>>(i%64))
			w.WriteBool(v&1 == 1)
			ref = append(ref, byte(v&1))
		}
		return bytes.Equal(w.Bits(), ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// errText renders an error for comparison; the reference builds its own
// error values, so errors are compared by message.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzReader drives Reader and the per-bit reference over one arbitrary
// byte string — bytes other than 0 and 1 included, which both read as 1 —
// with one script of reads: each script byte picks ReadBit, ReadBool,
// ReadUint(w) (w in 0..65 from the next script byte, 65 being invalid) or
// ReadUvarint. Every value, error and Remaining() must agree after every
// read.
func FuzzReader(f *testing.F) {
	ones := func(k int, tail ...byte) []byte {
		return append(bytes.Repeat([]byte{1}, k), tail...)
	}
	const (
		opBit byte = iota
		opBool
		opUint
		opUvarint
	)
	uvarints := []byte{opUvarint, opUvarint, opUvarint}
	for _, k := range []int{63, 64, 65} {
		f.Add(ones(k), uvarints)
		f.Add(ones(k, 0), uvarints)
		f.Add(ones(k, append([]byte{0}, ones(k)...)...), uvarints)
		f.Add(ones(k, 0, 2, 255), []byte{opUint, 64, opUvarint, opUint, 65, opBit})
	}
	f.Add([]byte{1, 1, 0, 1}, uvarints)                            // value bits cut short
	f.Add([]byte{1, 0, 1, 0, 7}, []byte{opUint, 8, opBit, opBool}) // uint cut short
	f.Add([]byte{0, 3, 0, 1, 0, 1}, []byte{opBool, opUint, 0, opUvarint, opUint, 2})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		got, want := NewReader(data), &refReader{bits: data}
		for i := 0; i < len(script); i++ {
			var gv, wv uint64
			var gerr, werr error
			op := script[i] % 4
			switch op {
			case opBit:
				var g, w byte
				g, gerr = got.ReadBit()
				w, werr = want.ReadBit()
				gv, wv = uint64(g), uint64(w)
			case opBool:
				var g, w bool
				g, gerr = got.ReadBool()
				w, werr = want.ReadBool()
				if g {
					gv = 1
				}
				if w {
					wv = 1
				}
			case opUint:
				width := 0
				if i+1 < len(script) {
					i++
					width = int(script[i] % 66)
				}
				gv, gerr = got.ReadUint(width)
				wv, werr = want.ReadUint(width)
			case opUvarint:
				gv, gerr = got.ReadUvarint()
				wv, werr = want.ReadUvarint()
			}
			if gv != wv || errText(gerr) != errText(werr) || got.Remaining() != want.Remaining() {
				t.Fatalf("op %d (kind %d): got (%d, %v, %d remaining), reference (%d, %v, %d remaining)",
					i, op, gv, gerr, got.Remaining(), wv, werr, want.Remaining())
			}
		}
	})
}

func BenchmarkWriteUvarint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var w Writer
		for v := uint64(0); v < 64; v++ {
			w.WriteUvarint(v * v)
		}
	}
}

// BenchmarkReadUvarint reads back a stream of uvarints with the value
// spread of tw-mso certificates: small depths and deltas, and vertex
// identifiers up to 17 bits.
func BenchmarkReadUvarint(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var w Writer
	const count = 1024
	for i := 0; i < count; i++ {
		w.WriteUvarint(uint64(rng.Int63n(1 << uint(rng.Intn(18)))))
	}
	stream := w.Bits()
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(stream)
		for j := 0; j < count; j++ {
			if _, err := r.ReadUvarint(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
