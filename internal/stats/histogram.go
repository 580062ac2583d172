package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Histogram accumulates positive observations into geometrically spaced
// buckets, the shape that answers quantile questions ("round-latency p99")
// over many orders of magnitude with bounded relative error and O(buckets)
// memory. Summarize keeps the moments of a materialised sample; Histogram
// keeps the distribution without one.
//
// Observe is safe for concurrent use — the live cluster's node goroutines
// all feed one round-latency histogram — and, the counters being
// order-independent sums, the accumulated state is deterministic in the
// multiset of observations, never in their interleaving.
type Histogram struct {
	mu sync.Mutex
	// bounds[i] is the lower edge of bucket i; bounds[len(counts)] the upper
	// edge of the last bucket. Observations below bounds[0] clamp into
	// bucket 0, observations at or above the top edge into the last bucket.
	bounds []float64
	counts []int64
	n      int64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds a histogram of `buckets` geometric buckets spanning
// [lo, hi). It panics on a non-positive range or bucket count — histogram
// shape is a construction-time decision, and a bad one is a programming
// error, not input.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if !(lo > 0) || !(hi > lo) || buckets < 1 {
		panic(fmt.Sprintf("stats: NewHistogram(%v, %v, %d): need 0 < lo < hi and at least one bucket", lo, hi, buckets))
	}
	ratio := math.Pow(hi/lo, 1/float64(buckets))
	bounds := make([]float64, buckets+1)
	edge := lo
	for i := 0; i < buckets; i++ {
		bounds[i] = edge
		edge *= ratio
	}
	bounds[buckets] = hi
	return &Histogram{bounds: bounds, counts: make([]int64, buckets)}
}

// Observe adds one observation.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] > x }) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	if h.n == 0 || x < h.min {
		h.min = x
	}
	if h.n == 0 || x > h.max {
		h.max = x
	}
	h.n++
	h.sum += x
}

// N returns the observation count.
func (h *Histogram) N() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// within the bucket holding the rank, clamped to the observed [min, max].
// Zero observations yield 0.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo, hi := h.bounds[i], h.bounds[i+1]
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return h.max
}

// HistogramSummary is the JSON-friendly snapshot of a Histogram.
type HistogramSummary struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
}

// Summary snapshots the histogram.
func (h *Histogram) Summary() HistogramSummary {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSummary{N: h.n}
	if h.n == 0 {
		return s
	}
	s.Mean = h.sum / float64(h.n)
	s.Min = h.min
	s.Max = h.max
	s.P50 = h.quantileLocked(0.50)
	s.P90 = h.quantileLocked(0.90)
	s.P99 = h.quantileLocked(0.99)
	return s
}
