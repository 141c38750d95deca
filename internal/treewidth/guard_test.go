package treewidth

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// guardOfPerBit is the guard as first written, one FNV-1a step per body
// bit: the executable specification guardOf's eight-bit steps must match
// on every input.
func guardOfPerBit(owner graph.ID, body []byte) uint64 {
	h := uint64(fnvOffset64)
	o := uint64(owner)
	for i := 0; i < 8; i++ {
		h ^= o & 0xff
		h *= fnvPrime64
		o >>= 8
	}
	for _, b := range body {
		h ^= uint64(b & 1)
		h *= fnvPrime64
	}
	return h & (1<<guardBits - 1)
}

// TestGuardMatchesPerBit holds guardOf to the per-bit reference on every
// body length from 0 to 300 — every remainder of the eight-bit steps,
// well past the 160-bit certificates of the large benchmarks — with
// arbitrary byte values, since the guard reads bit 0 of each byte only.
func TestGuardMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	owners := []graph.ID{1, 7, 1 << 40, math.MaxInt64, math.MinInt64, -3}
	for n := 0; n <= 300; n++ {
		for trial := 0; trial < 4; trial++ {
			body := make([]byte, n)
			for i := range body {
				if trial < 2 {
					body[i] = byte(rng.Intn(2)) // certificate bytes: 0 or 1
				} else {
					body[i] = byte(rng.Intn(256))
				}
			}
			owner := owners[(n+trial)%len(owners)]
			if trial == 3 {
				owner = graph.ID(rng.Uint64())
			}
			if got, want := guardOf(owner, body), guardOfPerBit(owner, body); got != want {
				t.Fatalf("len %d trial %d owner %d: guard %#04x, per-bit %#04x", n, trial, owner, got, want)
			}
		}
	}
}

// FuzzGuard differentially checks guardOf against the per-bit reference
// on arbitrary bodies and owners.
func FuzzGuard(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{1, 0, 1, 1, 0, 0, 1, 0, 1}, int64(42))
	f.Add([]byte{0xff, 0xfe, 2, 3, 0x80, 0x81, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27}, int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, body []byte, owner int64) {
		if got, want := guardOf(graph.ID(owner), body), guardOfPerBit(graph.ID(owner), body); got != want {
			t.Fatalf("owner %d, %d body bytes: guard %#04x, per-bit %#04x", owner, len(body), got, want)
		}
	})
}

// BenchmarkGuard times the guard over one certificate body of the size
// the large benchmarks' certificates reach (160 bits).
func BenchmarkGuard(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	body := make([]byte, 160)
	for i := range body {
		body[i] = byte(rng.Intn(2))
	}
	for i := 0; i < b.N; i++ {
		guardSink += guardOf(graph.ID(i+1), body)
	}
}

// guardSink keeps BenchmarkGuard's calls observable.
var guardSink uint64
