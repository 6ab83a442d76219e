package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it. Nearest rank never invents a value that was not measured,
// which matters for tail latencies. xs need not be sorted; 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n ≥ 1
// samples. The small subtraction keeps a product that is a whole number in
// exact arithmetic (99.9% of 10000) from rounding up to the next rank.
func rankOf(p float64, n int) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailCandidates are the tail percentiles a report may quote, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75}

// pickTail returns the highest tail percentile that still has at least ten
// samples beyond it among n samples, or 0 when even p75 is too thin. A
// percentile with fewer samples beyond it is one slow request, not a tail.
func pickTail(n int) float64 {
	for _, p := range tailCandidates {
		if n > 0 && n-rankOf(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method) does,
// so a spread computed here equals the one the acceptance driver computes.
// ok is false with fewer than two values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	const n = 4
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3), true
}

// exactMedian is the interpolating median (mean of the two middle samples
// for an even count), matching Python's statistics.median.
func exactMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is the interquartile distance as a share of the median; ok is false
// when it cannot be formed (fewer than two values or a zero median).
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	med := exactMedian(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}
