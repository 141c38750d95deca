package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets is the internal bucket count: bucket 0 holds zero-duration
// observations, bucket i (1 <= i <= 63) holds durations d with
// bits.Len64(d) == i, i.e. d in [2^(i-1), 2^i - 1] nanoseconds (a
// non-negative int64 never needs more than 63 bits). Log₂ bucketing
// trades precision for a fixed-size, lock-free layout: every observation
// is two atomic adds, and any quantile estimate is off by at most a
// factor of two (the bucket width).
const numBuckets = 64

// Histogram is a log₂-bucketed latency histogram. The zero value is ready
// to use. Observations are atomic bucket increments; snapshots read the
// buckets without stopping writers, so a snapshot taken under concurrent
// load is approximate in the usual scrape sense (monotone per bucket, not
// a single instant across buckets).
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
}

// bucketOf returns the bucket index for a duration in nanoseconds.
func bucketOf(ns int64) int {
	if ns <= 0 {
		return 0
	}
	return bits.Len64(uint64(ns))
}

// bucketBounds returns the inclusive nanosecond range [lo, hi] covered by
// bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, math.MaxInt64
	}
	return lo, int64(1)<<i - 1
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time view with estimated quantiles.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// SumNS is the total observed time in nanoseconds.
	SumNS int64 `json:"sum_ns"`
	// MaxNS is the largest single observation in nanoseconds.
	MaxNS int64 `json:"max_ns"`
	// P50NS, P90NS and P99NS are quantile estimates in nanoseconds,
	// accurate to within the log₂ bucket containing the true quantile.
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`

	// buckets keeps the raw counts for exposition and tests.
	buckets [numBuckets]uint64
}

// Snapshot reads the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.buckets[i] = c
		s.Count += c
	}
	s.SumNS = h.sumNS.Load()
	s.MaxNS = h.maxNS.Load()
	s.P50NS = s.quantile(0.50)
	s.P90NS = s.quantile(0.90)
	s.P99NS = s.quantile(0.99)
	return s
}

// BucketCount returns the raw count of internal bucket i (0 <= i < 65);
// exported for tests and the exposition layer.
func (s *HistogramSnapshot) BucketCount(i int) uint64 { return s.buckets[i] }

// CumulativeThrough returns the number of observations in buckets 0..i.
func (s *HistogramSnapshot) CumulativeThrough(i int) uint64 {
	var cum uint64
	for j := 0; j <= i && j < numBuckets; j++ {
		cum += s.buckets[j]
	}
	return cum
}

// quantile estimates the q-quantile (0 <= q <= 1) in nanoseconds: find the
// bucket containing the ceil-rank order statistic ceil(q*(count-1)) and
// interpolate linearly across the bucket's nanosecond range. The estimate
// lies inside the bucket of the true order statistic, so it is within a
// factor of two, and is monotone in q.
func (s *HistogramSnapshot) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The ceil rank is an integer 0-based position, so the bucket walk
	// locates the true order statistic exactly and the in-bucket position
	// stays in [0, 1). A fractional rank compared against cum+c-1 used to
	// push ranks in the gap between two occupied buckets (e.g. 7.2 over
	// positions ...,7 | 8,...) into the later bucket with a negative
	// position, interpolating below its lower bound and inverting
	// quantile order (p99 < p50 on small samples).
	rank := uint64(math.Ceil(q * float64(s.Count-1)))
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		c := s.buckets[i]
		if c == 0 {
			continue
		}
		// The bucket covers 0-based positions [cum, cum+c-1].
		if cum+c-1 >= rank {
			lo, hi := bucketBounds(i)
			if lo >= hi {
				return lo
			}
			pos := float64(rank-cum) / float64(c)
			// Interpolation spreads the bucket's samples over its whole
			// range, but no sample exceeds the observed max: an estimate
			// above it (p99 > max) would be reporting a latency nobody saw.
			return min(lo+int64(pos*float64(hi-lo)), s.MaxNS)
		}
		cum += c
	}
	return s.MaxNS
}

// Quantile estimates an arbitrary quantile from the snapshot.
func (s *HistogramSnapshot) Quantile(q float64) int64 { return s.quantile(q) }
