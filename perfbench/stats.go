package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: the tail of n samples is the highest percentile with at
// least this many samples above it.
const tailBeyond = 10

// sortedCopy returns v sorted ascending, leaving v untouched.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile of v (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// tail is the highest nearest-rank percentile of v with tailBeyond
// samples above it, capped at p99 from 1000 samples so large runs report
// a fixed percentile; with too few samples, the maximum.
func tail(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if len(s) <= tailBeyond {
		return s[len(s)-1]
	}
	if len(s) >= 1000 {
		return quantile(s, 0.99)
	}
	return s[len(s)-tailBeyond-1]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// iqMean is the mean of the middle half of v, the interquartile mean:
// like the median it ignores a few extreme values, but it moves smoothly
// where the median jumps across a gap between neighbouring values.
func iqMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	q := len(s) / 4
	return mean(s[q : len(s)-q])
}
