package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// Bucket boundaries: values at and around powers of two must land in the
// bucket whose inclusive range [2^(i-1), 2^i - 1] contains them.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0}, {-5, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{1023, 10}, {1024, 11}, {1025, 11},
		{1 << 20, 21}, {1<<20 - 1, 20},
		{1 << 40, 41},
	}
	for _, c := range cases {
		var h Histogram
		h.Observe(time.Duration(c.ns))
		s := h.Snapshot()
		if got := s.BucketCount(c.bucket); got != 1 {
			// Find where it actually landed for the failure message.
			where := -1
			for i := 0; i < numBuckets; i++ {
				if s.BucketCount(i) == 1 {
					where = i
				}
			}
			t.Errorf("Observe(%dns): want bucket %d, landed in %d", c.ns, c.bucket, where)
		}
		lo, hi := bucketBounds(c.bucket)
		if c.ns > 0 && (c.ns < lo || c.ns > hi) {
			t.Errorf("bucketBounds(%d) = [%d,%d] does not contain %d", c.bucket, lo, hi, c.ns)
		}
	}
}

func TestHistogramSumMaxCount(t *testing.T) {
	var h Histogram
	for _, ns := range []int64{10, 20, 5, 1000} {
		h.Observe(time.Duration(ns))
	}
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.SumNS != 1035 {
		t.Fatalf("sum = %d, want 1035", s.SumNS)
	}
	if s.MaxNS != 1000 {
		t.Fatalf("max = %d, want 1000", s.MaxNS)
	}
}

// referenceQuantile is the sorted-sample reference the histogram estimate
// is checked against: the order statistic at rank ceil(q*(n-1)) — the
// same rank convention the bucket walk uses, so the factor-of-two bucket
// guarantee is exactly what the property test asserts.
func referenceQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted)-1)))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Property test: for random workloads drawn from several shapes, every
// quantile estimate must land inside (or in a bucket adjacent to, for
// estimates at bucket edges) the log₂ bucket of the true order statistic —
// the factor-of-two accuracy contract of log₂ bucketing.
func TestHistogramQuantilePropertyAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []struct {
		name string
		draw func() int64
	}{
		{"uniform", func() int64 { return rng.Int63n(1_000_000) + 1 }},
		{"exponentialish", func() int64 { return int64(1) << rng.Intn(30) }},
		{"bimodal", func() int64 {
			if rng.Intn(2) == 0 {
				return rng.Int63n(1_000) + 1
			}
			return rng.Int63n(1_000_000_000) + 1_000_000
		}},
		{"constant", func() int64 { return 4096 }},
	}
	for _, shape := range shapes {
		for trial := 0; trial < 20; trial++ {
			n := rng.Intn(2000) + 10
			var h Histogram
			samples := make([]int64, n)
			for i := range samples {
				v := shape.draw()
				samples[i] = v
				h.Observe(time.Duration(v))
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := h.Snapshot()
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
				est := s.Quantile(q)
				ref := referenceQuantile(samples, q)
				rb := bucketOf(ref)
				eb := bucketOf(est)
				if eb < rb-1 || eb > rb+1 {
					t.Fatalf("%s trial %d n=%d q=%v: estimate %d (bucket %d) not within one bucket of reference %d (bucket %d)",
						shape.name, trial, n, q, est, eb, ref, rb)
				}
			}
		}
	}
}

// Quantile estimates must be monotone in q for any sample set. The seeded
// sweep reproduces the loadgen flake: with few samples spread over
// non-adjacent buckets, a fractional rank falling in the gap between one
// bucket's last position and the next bucket's first used to interpolate
// with a negative in-bucket position, landing below the bucket and
// inverting the order (p99 < p50).
func TestHistogramQuantileMonotone(t *testing.T) {
	// The distilled inversion: 9 samples, occupied buckets 18/19/21/22;
	// rank .9*(9-1)=7.2 sits between position 7 (last of bucket 21) and
	// position 8 (bucket 22).
	var h Histogram
	for _, ns := range []int64{
		300_000,
		600_000, 700_000,
		1_100_000, 1_200_000, 1_300_000, 1_400_000, 1_500_000,
		3_400_000,
	} {
		h.Observe(time.Duration(ns))
	}
	s := h.Snapshot()
	if s.P50NS > s.P90NS || s.P90NS > s.P99NS {
		t.Fatalf("distilled case not monotone: %+v", s)
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		var hh Histogram
		n := rng.Intn(120) + 1
		for i := 0; i < n; i++ {
			hh.Observe(time.Duration(rng.Int63n(4_000_000) + 1))
		}
		ss := hh.Snapshot()
		prev := int64(0)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			est := ss.Quantile(q)
			if est < prev {
				t.Fatalf("trial %d n=%d: Quantile(%v)=%d below previous %d (%+v)", trial, n, q, est, prev, ss)
			}
			prev = est
		}
	}
}

// The snapshot's named quantiles must agree with Quantile.
func TestHistogramSnapshotNamedQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.P50NS != s.Quantile(0.50) || s.P90NS != s.Quantile(0.90) || s.P99NS != s.Quantile(0.99) {
		t.Fatalf("named quantiles disagree with Quantile: %+v", s)
	}
	if !(s.P50NS <= s.P90NS && s.P90NS <= s.P99NS) {
		t.Fatalf("quantiles not monotone: p50=%d p90=%d p99=%d", s.P50NS, s.P90NS, s.P99NS)
	}
	// 1000 uniform values up to 1ms: p50 should sit near 500µs, i.e.
	// within its factor-of-two bucket [2^18, 2^19).
	if s.P50NS < 262144 || s.P50NS > 1048576 {
		t.Fatalf("p50 = %dns implausible for uniform 1..1000µs", s.P50NS)
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.SumNS != 0 || s.P50NS != 0 || s.P99NS != 0 {
		t.Fatalf("empty histogram snapshot not zero: %+v", s)
	}
}

// CumulativeThrough must be non-decreasing and reach Count — the invariant
// the Prometheus bucket lines are built on.
func TestHistogramCumulativeMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Histogram
	for i := 0; i < 500; i++ {
		h.Observe(time.Duration(rng.Int63n(1 << 30)))
	}
	s := h.Snapshot()
	var prev uint64
	for i := 0; i < numBuckets; i++ {
		cum := s.CumulativeThrough(i)
		if cum < prev {
			t.Fatalf("cumulative decreased at bucket %d: %d < %d", i, cum, prev)
		}
		prev = cum
	}
	if prev != s.Count {
		t.Fatalf("cumulative through last bucket %d != count %d", prev, s.Count)
	}
}

// Quantiles never exceed the observed max. A sample set that sits at the
// bottom of its log₂ bucket (all 1024ns, bucket [1024, 2047]) used to
// interpolate p99 to ~2036ns — a latency no request ever had.
func TestHistogramQuantileClampedToMax(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(1024)
	}
	h.Observe(1100)
	s := h.Snapshot()
	if s.MaxNS != 1100 {
		t.Fatalf("max = %d, want 1100", s.MaxNS)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		if got := s.Quantile(q); got > s.MaxNS {
			t.Errorf("q%.3f = %dns exceeds max %dns", q, got, s.MaxNS)
		}
	}
	if s.P99NS > s.MaxNS {
		t.Errorf("P99NS = %d exceeds max %d", s.P99NS, s.MaxNS)
	}
}
