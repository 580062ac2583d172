package stats

import (
	"fmt"
	"math"
)

// Stream is an online accumulator for mean/std/min/max over a sample that
// is never materialised — Welford's algorithm, one Add per observation in
// O(1) space, for wherever the batch Summarize would force a caller to keep
// per-round or per-envelope history alive.
//
// A Stream cannot produce a median (that genuinely requires the sample);
// callers that need one keep using Summarize on materialised data.
type Stream struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the stream.
func (s *Stream) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		s.min = math.Min(s.min, x)
		s.max = math.Max(s.max, x)
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations folded so far.
func (s *Stream) N() int { return s.n }

// Mean returns the running mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Std returns the running sample standard deviation (0 for fewer than two
// observations), matching Summarize's n−1 normalisation.
func (s *Stream) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest observation (0 for an empty stream).
func (s *Stream) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation (0 for an empty stream).
func (s *Stream) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Summary freezes the stream into its summary form.
func (s *Stream) Summary() StreamSummary {
	return StreamSummary{N: s.n, Mean: s.Mean(), Std: s.Std(), Min: s.Min(), Max: s.Max()}
}

// StreamSummary is the frozen result of a Stream: a Summary minus the
// median no online algorithm can provide.
type StreamSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// String implements fmt.Stringer.
func (s StreamSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f ±%.2f min=%.0f max=%.0f", s.N, s.Mean, s.Std, s.Min, s.Max)
}

// PowerFit fits y ≈ coeff·x^exponent by least squares on (log x, log y) —
// the scaling-law estimator E13 runs over its (n, total bits) sweep, where
// the fitted exponent separates the core protocol's Õ(n·polylog) growth
// (slope ≈ 1) from the quadratic baseline's Θ(n²) (slope ≈ 2). Points with
// non-positive coordinates are skipped; fewer than two usable points yield
// NaNs.
func PowerFit(xs, ys []float64) (exponent, coeff float64) {
	if len(xs) != len(ys) {
		return math.NaN(), math.NaN()
	}
	var n float64
	var sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		n++
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return math.NaN(), math.NaN()
	}
	exponent = (n*sxy - sx*sy) / denom
	coeff = math.Exp((sy - exponent*sx) / n)
	return exponent, coeff
}
