package main

import (
	"math"
	"sort"
)

// Quantiles here are exact order statistics over raw samples: no
// histogram buckets, no interpolation, so a reported percentile is always
// one of the observed values and can never exceed the observed maximum.

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the nearest-rank position (1-based) of the p-quantile among n
// samples: the smallest k with k/n >= p.
func rank(n int, p float64) int {
	k := int(math.Ceil(p * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// quantile returns the nearest-rank p-quantile of xs (NaN when empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minBeyond is how many samples must lie above a percentile before it is
// reported: fewer than that and the "percentile" is one or two outliers.
const minBeyond = 10

// supported reports whether n samples carry at least minBeyond samples
// above the p-quantile.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// tail is the highest reportable percentile of xs: p99, p95, p90 or p50,
// whichever is first supported. ok is false when not even the median has
// minBeyond samples above it.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{0.99, 0.95, 0.90, 0.50} {
		if supported(len(xs), p) {
			return p, quantile(xs, p), true
		}
	}
	return 0, 0, false
}

// summary is the printable digest of one sample set.
type summary struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
	Reason string  `json:"note,omitempty"`
}

// summarize digests xs, reporting a tail only when enough samples support it.
func summarize(xs []float64, unit string) summary {
	s := summary{N: len(xs), Unit: unit}
	if len(xs) == 0 {
		s.Reason = "no samples"
		return s
	}
	s.P50 = median(xs)
	s.Max = quantile(xs, 1)
	if p, v, ok := tail(xs); ok {
		s.TailP, s.Tail = p, v
	} else {
		s.Reason = "too few samples for a tail percentile"
	}
	return s
}

// quartileSpread is the distance between the first and third quartiles as
// a share of the median, with the quartiles taken the way Python's
// statistics.quantiles(values, n=4) takes them (the "exclusive" method),
// so the number printed here is the number an outside check computes.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := classicMedian(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// classicMedian is the textbook median of sorted s (mean of the two
// middle values for even n), matching statistics.median.
func classicMedian(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rangeSpread is (max-min)/median of xs.
func rangeSpread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	med := classicMedian(s)
	if med == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(med)
}
