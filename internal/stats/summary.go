package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Summary accumulates scalar observations online (Welford's algorithm)
// and, optionally, retains the raw samples for exact percentiles.
//
// The zero value is an empty summary that retains all samples. Use
// NewSummary(false) for a moments-only accumulator on high-volume paths.
type Summary struct {
	n        int64
	mean     float64
	m2       float64
	min, max float64
	discard  bool
	samples  []float64
	sorted   bool
}

// NewSummary returns an empty summary. If keepSamples is false, only
// moments and extrema are tracked and percentile queries panic.
func NewSummary(keepSamples bool) *Summary {
	return &Summary{discard: !keepSamples}
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.discard {
		s.samples = append(s.samples, x)
		s.sorted = false
	}
}

// Reserve makes room for n more retained samples, so the next n Adds
// do not regrow the sample slice. It does nothing for a moments-only
// summary.
func (s *Summary) Reserve(n int) {
	if !s.discard && n > 0 {
		s.samples = slices.Grow(s.samples, n)
	}
}

// AddAll records every value in xs.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// Merge folds other into s. Percentile data is merged only when both
// summaries retain samples.
func (s *Summary) Merge(other *Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *other
		s.samples = append([]float64(nil), other.samples...)
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	delta := other.mean - s.mean
	total := n1 + n2
	s.mean += delta * n2 / total
	s.m2 += other.m2 + delta*delta*n1*n2/total
	s.n += other.n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	if !s.discard && !other.discard {
		s.samples = append(s.samples, other.samples...)
		s.sorted = false
	} else {
		s.discard = true
		s.samples = nil
	}
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean, or 0 when empty.
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance, or 0 for fewer than two
// observations.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// CV returns the sample coefficient of variation (std/mean), or 0 when
// the mean is zero.
func (s *Summary) CV() float64 {
	if s.mean == 0 {
		return 0
	}
	return s.Std() / s.mean
}

// Min returns the smallest observation, or 0 when empty.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 when empty.
func (s *Summary) Max() float64 { return s.max }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the 95% normal-approximation
// confidence interval of the mean.
func (s *Summary) CI95() float64 { return 1.96 * s.StdErr() }

// Percentile returns the p-quantile (p in [0,1]) using linear
// interpolation between order statistics. It panics if the summary does
// not retain samples or is empty.
func (s *Summary) Percentile(p float64) float64 {
	if s.discard {
		panic("stats: Percentile on a moments-only Summary")
	}
	if len(s.samples) == 0 {
		panic("stats: Percentile on an empty Summary")
	}
	if p < 0 || p > 1 {
		panic("stats: Percentile p out of [0,1]")
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	if len(s.samples) == 1 {
		return s.samples[0]
	}
	pos := p * float64(len(s.samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.samples[lo]
	}
	frac := pos - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// FracAbove returns the fraction of observations strictly greater than
// x. It panics if the summary does not retain samples.
func (s *Summary) FracAbove(x float64) float64 {
	if s.discard {
		panic("stats: FracAbove on a moments-only Summary")
	}
	if len(s.samples) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
	idx := sort.SearchFloat64s(s.samples, x)
	for idx < len(s.samples) && s.samples[idx] == x {
		idx++
	}
	return float64(len(s.samples)-idx) / float64(len(s.samples))
}

// String formats the headline moments.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g std=%.6g min=%.6g max=%.6g",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// TimeWeighted accumulates the time-weighted average of a piecewise-
// constant signal, such as a queue length over simulated time. Values
// are weighted by how long they persist.
//
// The zero value is ready to use.
type TimeWeighted struct {
	lastT    float64
	lastV    float64
	area     float64
	duration float64
	started  bool
}

// Set records that the signal takes value v from time t onward. Calls
// must have non-decreasing t.
func (w *TimeWeighted) Set(t, v float64) {
	if w.started {
		if t < w.lastT {
			panic("stats: TimeWeighted.Set with decreasing time")
		}
		dt := t - w.lastT
		w.area += w.lastV * dt
		w.duration += dt
	}
	w.lastT, w.lastV, w.started = t, v, true
}

// Finish closes the signal at time t and returns the time-weighted mean.
func (w *TimeWeighted) Finish(t float64) float64 {
	w.Set(t, w.lastV)
	return w.Mean()
}

// Mean returns the time-weighted mean accumulated so far.
func (w *TimeWeighted) Mean() float64 {
	if w.duration == 0 {
		return 0
	}
	return w.area / w.duration
}

// Duration returns the total observed time span.
func (w *TimeWeighted) Duration() float64 { return w.duration }

// Samples returns a copy of the retained raw observations (in
// insertion or sorted order depending on prior Percentile calls). It
// panics on a moments-only summary. Use with BatchMeans for
// steady-state confidence intervals.
func (s *Summary) Samples() []float64 {
	if s.discard {
		panic("stats: Samples on a moments-only Summary")
	}
	return append([]float64(nil), s.samples...)
}
