package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above the reported tail value:
// the tail percentile is the highest one the sample count supports.
const minBeyond = 10

// sortedCopy returns xs in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle value of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

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

// tail returns the value of the highest percentile that has at least
// minBeyond samples above it, and that percentile. With n samples that is
// the (n-minBeyond)-th smallest value, at percentile 100*(n-minBeyond)/n.
// Fewer than minBeyond+1 samples support no such percentile; the maximum
// is reported at percentile 100 instead.
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if n <= minBeyond {
		return s[n-1], 100
	}
	k := n - minBeyond
	return s[k-1], 100 * float64(k) / float64(n)
}

// quartiles ports Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so the compare command reads spreads the
// same way the acceptance check does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}
