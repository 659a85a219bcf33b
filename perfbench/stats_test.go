package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	s := summarize(xs)
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}, {0, 1},
	} {
		if got := s.pct(c.p); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := s.mean(); got != 5.5 {
		t.Errorf("mean = %v, want 5.5", got)
	}
	if xs[0] != 5 {
		t.Errorf("summarize reordered its input")
	}
	if got := summarize(nil).pct(50); got != 0 {
		t.Errorf("empty pct = %v, want 0", got)
	}
}

func TestBeyondCountsTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if got := s.pct(99); got != 990 {
		t.Fatalf("p99 = %v, want 990", got)
	}
	if got := s.beyond(99); got != 10 {
		t.Errorf("beyond(99) = %d, want 10", got)
	}
	// Ties at the percentile are not beyond it.
	if got := summarize([]float64{1, 2, 2, 2}).beyond(50); got != 0 {
		t.Errorf("beyond with ties = %d, want 0", got)
	}
}

func TestMedianAndCV(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	if got := cv([]float64{2, 2, 2}); got != 0 {
		t.Errorf("cv of constant = %v", got)
	}
	if got := cv([]float64{1, 3}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cv{1,3} = %v, want 0.5", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio by zero = %v", got)
	}
}
