package main

import (
	"math"
	"sort"

	"ccba/internal/stats"
)

// median and mean are the repository's own (stats.Summarize): 0 for an
// empty sample, xs not modified.
func median(xs []float64) float64 { return stats.Summarize(xs).Median }

func mean(xs []float64) float64 { return stats.Summarize(xs).Mean }

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default "exclusive" method), so
// the selfcheck judges spreads by the same arithmetic the accepting driver
// uses. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	cut := func(i int) float64 {
		// Position i·(n+1)/4 in 1-based ranks. Like Python, the rank is
		// clamped to the data first and the remainder taken after, so
		// the end quartiles of tiny samples extrapolate.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadShare is the interquartile distance of xs as a share of its median
// (0 when the median is 0).
func spreadShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
