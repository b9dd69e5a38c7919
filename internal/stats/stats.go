// Package stats provides the small set of descriptive statistics used by
// the experiment harness and tests: means, deviations, extrema and
// histograms over float64 samples.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += float64(d * d)
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	best := xs[0]
	for _, x := range xs[1:] {
		if x < best {
			best = x
		}
	}
	return best
}

// Max returns the largest element of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	best := xs[0]
	for _, x := range xs[1:] {
		if x > best {
			best = x
		}
	}
	return best
}

// Median returns the median of xs (the mean of the two middle elements for
// even lengths); it panics on an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks; it panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p <= 0 {
		return Min(xs)
	}
	if p >= 100 {
		return Max(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := float64(p / 100 * float64(len(s)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// GeoMean returns the geometric mean of xs; all samples must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: GeoMean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: GeoMean sample %g <= 0", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Summary bundles the descriptive statistics of a sample.
type Summary struct {
	N            int
	Mean, StdDev float64
	Min, Max     float64
	Median       float64
}

// Summarize computes a Summary of xs; the zero Summary is returned for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Median: Median(xs),
	}
}

// String formats the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g med=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
}

// Histogram counts samples into equal-width bins over [lo, hi]; samples
// outside the range are clamped into the edge bins.
func Histogram(xs []float64, lo, hi float64, bins int) []int {
	if bins < 1 || hi <= lo {
		return nil
	}
	counts := make([]int, bins)
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		k := int((x - lo) / width)
		if k < 0 {
			k = 0
		}
		if k >= bins {
			k = bins - 1
		}
		counts[k]++
	}
	return counts
}

// SparkLine renders counts as a compact unicode bar string, useful for
// terminal diagnostics.
func SparkLine(counts []int) string {
	if len(counts) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for _, c := range counts {
		if peak == 0 {
			b.WriteRune(glyphs[0])
			continue
		}
		idx := c * (len(glyphs) - 1) / peak
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}
