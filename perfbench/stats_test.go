package main

import (
	"math"
	"testing"
)

// The tail of a timing is reported at the highest percentile that still
// has at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		cap  float64
		want float64
	}{
		{0, 95, 50},
		{19, 95, 50},
		{40, 95, 75},
		{99, 95, 75},
		{100, 95, 90},
		{199, 95, 90},
		{200, 95, 95},
		{999, 99, 95},
		{1000, 99, 99},
		{10000, 99.9, 99.9},
		{10000, 95, 95},
	} {
		if got := tailPercentile(tc.n, tc.cap); got != tc.want {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", tc.n, tc.cap, got, tc.want)
		}
	}
}

func TestTailUsesRuleAndInterpolates(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // unsorted on purpose
	}
	v, p := tail(xs, 95)
	if p != 95 || math.Abs(v-0.95*199) > 1e-9 {
		t.Errorf("tail = %g at p%g, want %g at p95", v, p, 0.95*199)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if xs[0] != 199 {
		t.Error("quantile sorted its input in place")
	}
}

func TestYieldsAgree(t *testing.T) {
	if !yieldsAgree(1, 150, 1, 150) || !yieldsAgree(0, 150, 0, 100) {
		t.Error("identical estimates must agree")
	}
	if !yieldsAgree(0.92, 150, 0.88, 150) {
		t.Error("a 4-point gap at n=150 is sampling noise")
	}
	if yieldsAgree(0.95, 150, 0.60, 150) {
		t.Error("a 35-point gap at n=150 is not sampling noise")
	}
}
