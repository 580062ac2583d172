package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if len(xs) > 1 {
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.2f ±%.2f min=%.0f med=%.1f max=%.0f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Max)
}

// ChernoffUpper bounds Pr[X ≥ t] for X a sum of independent Bernoullis with
// mean mu and t > mu, via the multiplicative bound
// Pr[X ≥ (1+δ)μ] ≤ exp(−δ²μ/(2+δ)). Returns 1 when t ≤ mu.
func ChernoffUpper(mu, t float64) float64 {
	if mu <= 0 {
		return 0
	}
	if t <= mu {
		return 1
	}
	delta := t/mu - 1
	return math.Exp(-delta * delta * mu / (2 + delta))
}

// ChernoffLower bounds Pr[X ≤ t] for X a sum of independent Bernoullis with
// mean mu and t < mu, via Pr[X ≤ (1−δ)μ] ≤ exp(−δ²μ/2). Returns 1 when
// t ≥ mu.
func ChernoffLower(mu, t float64) float64 {
	if mu <= 0 {
		return 1
	}
	if t >= mu {
		return 1
	}
	delta := 1 - t/mu
	return math.Exp(-delta * delta * mu / 2)
}

// WilsonInterval returns the Wilson score interval for a binomial proportion
// at confidence level z standard deviations (z = 1.96 for 95%).
func WilsonInterval(successes, trials int, z float64) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = math.Max(0, center-half)
	hi = math.Min(1, center+half)
	return lo, hi
}

// Rate is a convenience for success proportions.
func Rate(successes, trials int) float64 {
	if trials == 0 {
		return 0
	}
	return float64(successes) / float64(trials)
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
