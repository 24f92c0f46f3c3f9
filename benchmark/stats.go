package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of xs by the nearest-rank rule on
// a sorted copy; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the mean of the two middle values for an even count, so a
// two-sample median is not biased towards the smaller one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// roundSpread is (max − min) ÷ min of the per-round values: how far the
// worst round sat above the best one.
func roundSpread(xs []float64) float64 {
	lo := minOf(xs)
	if len(xs) == 0 || lo <= 0 {
		return 0
	}
	return (maxOf(xs) - lo) / lo
}
