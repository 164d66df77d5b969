package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := len(s) / 2
	if len(s)%2 == 1 {
		return s[k]
	}
	return (s[k-1] + s[k]) / 2
}

// quartiles returns the first and third quartiles of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), the rule
// the benchmark's spread is judged by. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		// Python's exclusive method: position i*(n+1)/4 in 1-based
		// order, clamped to [1, n-1], interpolated in exact integers.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// candidatePermille are the percentiles a latency report may use, in
// tenths of a percent, highest first (integers keep the ten-samples
// rule exact).
var candidatePermille = []int{999, 990, 950, 900, 750, 500}

// highestPercentile returns the highest percentile, at most ceiling,
// that n samples support: one with at least ten samples beyond it. A
// sample count too small for any of them falls back to the median.
func highestPercentile(n int, ceiling float64) float64 {
	for _, q := range candidatePermille {
		if float64(q) > ceiling*10 {
			continue
		}
		if n*(1000-q) >= 10*1000 {
			return float64(q) / 10
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest value with at least p% of the samples at or below it. The
// 50th percentile is the median.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p == 50 {
		return median(xs)
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
