package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted and how many
// samples lie above it. A percentile with fewer than minBeyond samples
// beyond it is not supported by the sample.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = min(max(i, 0), n-1)
	return sorted[i], n - 1 - i
}

// sortedOf returns xs sorted, leaving xs alone.
func sortedOf(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedOf(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) ("exclusive"), the method the
// benchmark's spread is judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedOf(xs)
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// us and ms convert durations to float units.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
