package kernel

import "math"

// Log2TypeBound returns log2 of the Proposition 6.2 bound f_d(k,t) on the
// number of end types of a vertex at depth d in a k-reduced graph of
// treedepth at most t:
//
//	f_t(k,t) = 2^t
//	f_d(k,t) = 2^d * (k+1)^{f_{d+1}(k,t)}
//
// The bound is a tower and overflows anything for small d, so it is
// returned in log2 form, with +Inf when even the logarithm overflows.
func Log2TypeBound(d, k, t int) float64 {
	if d > t || d < 1 {
		return 0
	}
	if d == t {
		return float64(t)
	}
	inner := Log2TypeBound(d+1, k, t)
	if math.IsInf(inner, 1) || inner > 62 {
		return math.Inf(1)
	}
	fNext := math.Exp2(inner)
	res := float64(d) + fNext*math.Log2(float64(k+1))
	if math.IsInf(res, 1) || math.IsNaN(res) {
		return math.Inf(1)
	}
	return res
}
