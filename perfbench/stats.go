package main

import (
	"math"
	"sort"
)

// summary is the order statistics of one sample set. Percentiles use
// the nearest-rank rule, so every reported value is a measured sample.
type summary struct {
	n      int
	sorted []float64
	sum    float64
}

func summarize(xs []float64) summary {
	s := summary{n: len(xs), sorted: append([]float64(nil), xs...)}
	sort.Float64s(s.sorted)
	for _, x := range xs {
		s.sum += x
	}
	return s
}

// pct returns the nearest-rank p-th percentile (0 < p <= 100), or 0
// for an empty set.
func (s summary) pct(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.n {
		rank = s.n
	}
	return s.sorted[rank-1]
}

func (s summary) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// beyond reports how many samples lie strictly above the p-th
// percentile: a tail percentile is only worth reporting when at least
// ten samples sit past it.
func (s summary) beyond(p float64) int {
	v := s.pct(p)
	i := sort.Search(s.n, func(i int) bool { return s.sorted[i] > v })
	return s.n - i
}

// median is the midpoint median (mean of the two middle values for an
// even count), used for summarising repetitions rather than samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// cv is the coefficient of variation (population standard deviation
// over mean), or 0 when the mean is 0.
func cv(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
