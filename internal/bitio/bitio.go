// Package bitio provides bit-level writers and readers used to encode
// certificates so that their sizes can be accounted for exactly in bits.
//
// Local certification measures certificate size as a number of bits per
// vertex, so byte-oriented encodings would distort every measurement by up
// to 8x. All schemes in this module serialize through bitio and report
// sizes via Writer.Len.
//
// The layout is one byte per bit (0 or 1; readers take any non-zero byte
// as 1), which keeps a certificate indexable bit by bit: tampers flip
// single bits in place. Multi-bit fields are still read and written
// whole: ReadUint and ReadUvarint check bounds once per field and fold
// its bytes eight per step, and WriteUint and WriteUvarint grow the
// buffer once per field.
package bitio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// ErrOutOfBits is returned by Reader methods when the underlying stream is
// exhausted before the requested number of bits could be read.
var ErrOutOfBits = errors.New("bitio: out of bits")

// errMalformedUvarint reports a uvarint whose unary length prefix runs to
// 64 ones: no uint64 has a longer encoding than 63 ones and a zero.
var errMalformedUvarint = errors.New("bitio: malformed uvarint (length prefix too long)")

// Writer accumulates a bit string. The zero value is an empty writer ready
// for use.
type Writer struct {
	bits []byte // one entry per bit, values 0 or 1 (simple and testable)
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return len(w.bits) }

// Reset empties the writer while keeping its buffer, so encoders looping
// over many certificates can reuse one writer instead of growing a fresh
// buffer per item. Bit strings previously returned by Bits are
// invalidated; Clone results are unaffected.
func (w *Writer) Reset() { w.bits = w.bits[:0] }

// WriteBit appends a single bit (any non-zero b is treated as 1).
func (w *Writer) WriteBit(b byte) {
	if b != 0 {
		b = 1
	}
	w.bits = append(w.bits, b)
}

// WriteBool appends a single bit encoding v.
func (w *Writer) WriteBool(v bool) {
	if v {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// extend grows the bit string by n bits and returns them for the caller
// to fill: one capacity check per field instead of one per bit.
func (w *Writer) extend(n int) []byte {
	lo := len(w.bits)
	w.bits = slices.Grow(w.bits, n)[:lo+n]
	return w.bits[lo:]
}

// putUint fills out with the len(out) lowest-order bits of v, most
// significant first.
func putUint(out []byte, v uint64) {
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = byte(v & 1)
		v >>= 1
	}
}

// WriteUint appends the width lowest-order bits of v, most significant
// first. It panics if width is negative, exceeds 64, or if v does not fit
// in width bits: certificate encoders are expected to size their fields
// correctly, and silently truncating would hide prover bugs.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitio: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("bitio: value %d does not fit in %d bits", v, width))
	}
	putUint(w.extend(width), v)
}

// WriteUvarint appends v in a self-delimiting Elias-gamma-style encoding:
// a unary length prefix followed by the value bits. It uses 2*bitlen(v+1)-1
// bits, so small values stay small while remaining self-delimiting. It
// panics on math.MaxUint64, the one value whose v+1 does not fit in 64
// bits, as WriteUint does for a value that does not fit its width.
func (w *Writer) WriteUvarint(v uint64) {
	if v == math.MaxUint64 {
		panic("bitio: uvarint value 2^64-1 does not fit")
	}
	n := bits.Len64(v + 1)
	out := w.extend(2*n - 1)
	for i := 0; i < n-1; i++ {
		out[i] = 1
	}
	out[n-1] = 0
	// The n-1 low bits of v+1 (the leading 1 is implicit).
	putUint(out[n:], v+1)
}

// WriteBytesOf appends all bits from another writer.
func (w *Writer) WriteBytesOf(other *Writer) {
	w.bits = append(w.bits, other.bits...)
}

// Bits returns the accumulated bit string. The returned slice aliases the
// writer's internal storage; callers must not modify it.
func (w *Writer) Bits() []byte { return w.bits }

// Clone returns an independent copy of the accumulated bit string.
func (w *Writer) Clone() []byte {
	out := make([]byte, len(w.bits))
	copy(out, w.bits)
	return out
}

// Reader consumes a bit string produced by a Writer. A read that runs out
// of bits consumes the rest of the string, and a malformed uvarint its 64
// prefix bits, exactly as reading the field bit by bit would.
type Reader struct {
	bits []byte
	pos  int
}

// NewReader returns a reader over the given bit string (one byte per bit,
// as produced by Writer.Bits).
func NewReader(bits []byte) *Reader {
	return &Reader{bits: bits}
}

// Remaining reports how many bits are left to read.
func (r *Reader) Remaining() int { return len(r.bits) - r.pos }

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (byte, error) {
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

// ReadBool reads a single bit as a bool.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b != 0, err
}

// outOfBits consumes the rest of the string and reports ErrOutOfBits.
func (r *Reader) outOfBits() (uint64, error) {
	r.pos = len(r.bits)
	return 0, ErrOutOfBits
}

// getUint folds the bits of field into v, most significant first, eight
// bit-bytes per step: each non-zero byte of a big-endian word becomes a
// 1 in bit 0 of its byte, and one multiply gathers those eight bits into
// the top byte, the first bit highest. The bytes past the last full step
// fold one by one.
func getUint(v uint64, field []byte) uint64 {
	for len(field) >= 8 {
		x := binary.BigEndian.Uint64(field)
		// The high bit of a byte of nz is set exactly when the byte of x
		// is non-zero: its low seven bits plus 0x7f carry into it unless
		// they are all zero, and the OR keeps a set high bit.
		nz := ((x&lowBits7 + lowBits7) | x) & highBits
		v = v<<8 | (nz>>7)*gatherBits>>56
		field = field[8:]
	}
	for _, b := range field {
		v <<= 1
		if b != 0 {
			v |= 1
		}
	}
	return v
}

// The constants of getUint's eight-byte step: the low seven and the high
// bit of every byte, and the multiplier that moves bit 0 of byte k of a
// word to bit 56+k.
const (
	lowBits7   = 0x7f7f7f7f7f7f7f7f
	highBits   = 0x8080808080808080
	gatherBits = 0x0102040810204080
)

// ReadUint reads width bits, most significant first.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("bitio: invalid width %d", width)
	}
	if width > r.Remaining() {
		return r.outOfBits()
	}
	v := getUint(0, r.bits[r.pos:r.pos+width])
	r.pos += width
	return v, nil
}

// ReadUvarint reads a value written by WriteUvarint.
func (r *Reader) ReadUvarint() (uint64, error) {
	rest := r.bits[r.pos:]
	// The unary prefix ends at the first zero byte; at most 63 ones may
	// precede it.
	k := bytes.IndexByte(rest[:min(len(rest), 64)], 0)
	if k < 0 {
		if len(rest) < 64 {
			return r.outOfBits()
		}
		r.pos += 64
		return 0, errMalformedUvarint
	}
	if 2*k+1 > len(rest) {
		return r.outOfBits()
	}
	v := getUint(1, rest[k+1:2*k+1])
	r.pos += 2*k + 1
	return v - 1, nil
}

// UintWidth returns the minimum number of bits needed to represent any
// value in [0, max]; it is 1 for max == 0 so that a field is never empty.
func UintWidth(max uint64) int {
	if max == 0 {
		return 1
	}
	return bits.Len64(max)
}
