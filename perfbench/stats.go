package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for
// an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the p99 when at least ten samples lie beyond it, and
// otherwise the highest percentile that has ten samples beyond it (or
// the median, when that rank is not above the middle of the sample), so
// a tail figure never rests on a handful of samples and never reads
// below the median.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	k := int(math.Ceil(0.99 * float64(n))) // 1-based nearest rank
	if k > n-10 {
		k = n - 10
	}
	if k <= n/2 {
		return median(s)
	}
	return s[k-1]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
