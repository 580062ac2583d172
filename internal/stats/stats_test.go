package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEvenMedian(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Median != 2.5 {
		t.Fatalf("median = %v", s.Median)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Std != 0 || s.Median != 7 {
		t.Fatalf("single summary %+v", s)
	}
}

func TestSummaryString(t *testing.T) {
	if Summarize([]float64{1, 2}).String() == "" {
		t.Fatal("empty string")
	}
}

func TestChernoffUpper(t *testing.T) {
	if got := ChernoffUpper(10, 5); got != 1 {
		t.Fatalf("t ≤ mu must return 1, got %v", got)
	}
	if got := ChernoffUpper(0, 5); got != 0 {
		t.Fatalf("mu=0 must return 0, got %v", got)
	}
	// δ=1, μ=10: exp(−10/3).
	want := math.Exp(-10.0 / 3)
	if got := ChernoffUpper(10, 20); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ChernoffUpper(10,20) = %v, want %v", got, want)
	}
}

func TestChernoffLower(t *testing.T) {
	if got := ChernoffLower(10, 15); got != 1 {
		t.Fatalf("t ≥ mu must return 1, got %v", got)
	}
	if got := ChernoffLower(0, 1); got != 1 {
		t.Fatalf("mu=0 must return 1, got %v", got)
	}
	// δ=0.5, μ=10: exp(−0.25·10/2) = exp(−1.25).
	want := math.Exp(-1.25)
	if got := ChernoffLower(10, 5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ChernoffLower(10,5) = %v, want %v", got, want)
	}
}

func TestChernoffBoundsAreProbabilities(t *testing.T) {
	f := func(mu, tt float64) bool {
		mu = math.Abs(mu)
		tt = math.Abs(tt)
		u := ChernoffUpper(mu, tt)
		l := ChernoffLower(mu, tt)
		return u >= 0 && u <= 1 && l >= 0 && l <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("[%v, %v] does not bracket 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Fatalf("interval too wide: [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatalf("zero trials: [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 100, 1.96)
	if lo != 0 || hi > 0.06 {
		t.Fatalf("zero successes: [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(100, 100, 1.96)
	if hi < 0.999 || lo < 0.94 {
		t.Fatalf("all successes: [%v, %v]", lo, hi)
	}
}

func TestRate(t *testing.T) {
	if Rate(3, 4) != 0.75 || Rate(0, 0) != 0 {
		t.Fatal("Rate wrong")
	}
}

// TestEdgeCases is the harness-adjacent edge-case table: degenerate samples
// and the trials=0 Wilson interval, which the aggregator leans on for
// scenarios whose metrics or events may be empty.
func TestEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want Summary
	}{
		{"empty", nil, Summary{}},
		{"empty-slice", []float64{}, Summary{}},
		{"single", []float64{7}, Summary{N: 1, Mean: 7, Std: 0, Min: 7, Max: 7, Median: 7}},
		{"all-equal", []float64{4, 4, 4, 4}, Summary{N: 4, Mean: 4, Std: 0, Min: 4, Max: 4, Median: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Summarize(tc.xs); got != tc.want {
				t.Fatalf("Summarize(%v) = %+v, want %+v", tc.xs, got, tc.want)
			}
		})
	}

	t.Run("wilson-zero-trials", func(t *testing.T) {
		lo, hi := WilsonInterval(0, 0, 1.96)
		if lo != 0 || hi != 1 {
			t.Fatalf("WilsonInterval(0, 0) = [%v, %v], want the vacuous [0, 1]", lo, hi)
		}
		if r := Rate(0, 0); r != 0 {
			t.Fatalf("Rate(0, 0) = %v", r)
		}
	})
	t.Run("wilson-extremes", func(t *testing.T) {
		lo, hi := WilsonInterval(0, 50, 1.96)
		if lo != 0 || hi <= 0 || hi >= 0.2 {
			t.Fatalf("WilsonInterval(0, 50) = [%v, %v]", lo, hi)
		}
		lo, hi = WilsonInterval(50, 50, 1.96)
		if hi != 1 || lo >= 1 || lo <= 0.8 {
			t.Fatalf("WilsonInterval(50, 50) = [%v, %v]", lo, hi)
		}
	})
}

func TestPowerFit(t *testing.T) {
	tests := []struct {
		name     string
		exp, c   float64
		xs       []float64
		wantExp  float64
		wantCoef float64
	}{
		{"linear", 1, 3, []float64{10, 100, 1000, 10000}, 1, 3},
		{"quadratic", 2, 0.5, []float64{101, 251, 501, 1001}, 2, 0.5},
		{"polylog-ish", 1.1, 7, []float64{1000, 10000, 100000}, 1.1, 7},
	}
	for _, tc := range tests {
		ys := make([]float64, len(tc.xs))
		for i, x := range tc.xs {
			ys[i] = tc.c * math.Pow(x, tc.exp)
		}
		gotExp, gotCoef := PowerFit(tc.xs, ys)
		if math.Abs(gotExp-tc.wantExp) > 1e-9 {
			t.Errorf("%s: exponent = %v, want %v", tc.name, gotExp, tc.wantExp)
		}
		if math.Abs(gotCoef-tc.wantCoef)/tc.wantCoef > 1e-9 {
			t.Errorf("%s: coeff = %v, want %v", tc.name, gotCoef, tc.wantCoef)
		}
	}
}

func TestPowerFitDegenerate(t *testing.T) {
	if e, c := PowerFit([]float64{1, 2}, []float64{1}); !math.IsNaN(e) || !math.IsNaN(c) {
		t.Errorf("mismatched lengths: got %v/%v, want NaNs", e, c)
	}
	if e, _ := PowerFit([]float64{5}, []float64{25}); !math.IsNaN(e) {
		t.Errorf("single point: got exponent %v, want NaN", e)
	}
	if e, _ := PowerFit([]float64{-1, 0, 3}, []float64{1, 1, 9}); !math.IsNaN(e) {
		// Only one usable point survives the positivity filter.
		t.Errorf("filtered to one point: got exponent %v, want NaN", e)
	}
	// Identical x-coordinates cannot determine a slope.
	if e, _ := PowerFit([]float64{4, 4}, []float64{2, 8}); !math.IsNaN(e) {
		t.Errorf("vertical data: got exponent %v, want NaN", e)
	}
}
