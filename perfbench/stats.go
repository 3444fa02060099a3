package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks. xs need not be sorted; it is
// not modified. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the tail percentiles a timing may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of the ladder that still
// has at least minBeyond of n samples beyond it, capped at cap; with too
// few samples for any ladder step it returns 50, the median.
func tailPercentile(n int, cap float64) float64 {
	for _, p := range tailLadder {
		// The tolerance absorbs rounding in (100-p)/100, e.g. for p = 99.9.
		if p <= cap && float64(n)*(100-p)/100 >= minBeyond-1e-6 {
			return p
		}
	}
	return 50
}

// tail reports xs at the highest percentile up to cap that has at least
// minBeyond samples beyond it (see tailPercentile), together with the
// percentile used.
func tail(xs []float64, cap float64) (value, percentile float64) {
	p := tailPercentile(len(xs), cap)
	return quantile(xs, p/100), p
}

// pct returns 100·num/den, or 0 when den is 0.
func pct(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * num / den
}

// minOf returns the smallest element of xs (0 for an empty slice).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// sum adds up xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
