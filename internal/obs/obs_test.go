package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("after Inc+Add(41) = %d, want 42", c.Value())
	}
	c.Add(0)
	c.Add(-7)
	if c.Value() != 42 {
		t.Fatalf("non-positive deltas must be ignored, got %d", c.Value())
	}
}

func TestCounterOverflowSaturates(t *testing.T) {
	tests := []struct {
		name  string
		start int64
		delta int64
		want  int64
	}{
		{"no overflow", 10, 5, 15},
		{"exact max", math.MaxInt64 - 3, 3, math.MaxInt64},
		{"one past max", math.MaxInt64 - 3, 4, math.MaxInt64},
		{"huge delta", math.MaxInt64 - 3, math.MaxInt64, math.MaxInt64},
		{"already saturated", math.MaxInt64, 1, math.MaxInt64},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var c Counter
			c.v.Store(tc.start)
			c.Add(tc.delta)
			if got := c.Value(); got != tc.want {
				t.Fatalf("start=%d add=%d: got %d, want %d", tc.start, tc.delta, got, tc.want)
			}
		})
	}
}

func TestCounterConcurrentAdds(t *testing.T) {
	var c Counter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("concurrent adds lost updates: %d, want %d", got, workers*per)
	}
}

func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Add(3)
	g.Add(4) // 7, the peak
	g.Add(-5)
	g.Set(1)
	if g.Value() != 1 {
		t.Fatalf("value = %d, want 1", g.Value())
	}
	if g.High() != 7 {
		t.Fatalf("high water = %d, want 7", g.High())
	}
}

func TestGaugeNeverPositive(t *testing.T) {
	var g Gauge
	g.Add(-3)
	if g.Value() != -3 {
		t.Fatalf("value = %d, want -3", g.Value())
	}
	if g.High() != 0 {
		t.Fatalf("a gauge that never rose must report high=0, got %d", g.High())
	}
}

func TestGaugeConcurrentHighWater(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	// Each worker spikes to its own level and back down; the high-water
	// mark must capture the global maximum regardless of interleaving.
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func(lvl int64) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(lvl)
				g.Add(-lvl)
			}
		}(int64(i))
	}
	wg.Wait()
	if g.Value() != 0 {
		t.Fatalf("value = %d, want 0 after balanced adds", g.Value())
	}
	if g.High() < 8 {
		t.Fatalf("high water %d lost the largest single spike (>=8)", g.High())
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{1, 2.5, 5, 10}
	tests := []struct {
		name   string
		x      float64
		bucket int // index into counts; len(bounds) is +Inf
	}{
		{"below first", 0.5, 0},
		{"exactly first bound", 1, 0},
		{"just above first", 1.0001, 1},
		{"mid bucket", 2, 1},
		{"exactly mid bound", 2.5, 1},
		{"exactly last bound", 10, 3},
		{"just above last", 10.0001, 4},
		{"far above last", 1e9, 4},
		{"zero", 0, 0},
		{"negative", -3, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h, err := newHistogram(bounds)
			if err != nil {
				t.Fatal(err)
			}
			h.Observe(tc.x)
			for i := 0; i <= len(bounds); i++ {
				want := int64(0)
				if i == tc.bucket {
					want = 1
				}
				if got := h.BucketCount(i); got != want {
					t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.x, i, got, want)
				}
			}
			if h.Count() != 1 {
				t.Errorf("count = %d, want 1", h.Count())
			}
			if h.Sum() != tc.x {
				t.Errorf("sum = %v, want %v", h.Sum(), tc.x)
			}
		})
	}
}

func TestHistogramBadBounds(t *testing.T) {
	tests := []struct {
		name   string
		bounds []float64
	}{
		{"empty", nil},
		{"duplicate", []float64{1, 1, 2}},
		{"decreasing", []float64{1, 0.5}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := newHistogram(tc.bounds); err == nil {
				t.Fatalf("bounds %v accepted, want error", tc.bounds)
			}
		})
	}
}

// TestHistogramFoldMatchesObserve pins the plain-tally publish path:
// counts tallied with BucketIndex and a sum accumulated in observation
// order, folded into an empty histogram, leave it bit-identical to
// observing the same values one by one.
func TestHistogramFoldMatchesObserve(t *testing.T) {
	bounds := LatencyBuckets()
	live, _ := newHistogram(bounds)
	folded, _ := newHistogram(bounds)
	counts := make([]int64, len(bounds)+1)
	var sum float64
	for i := 0; i < 1000; i++ {
		x := 0.00003 * math.Pow(1.02, float64(i)) // 30 µs up past the +Inf bound
		live.Observe(x)
		counts[BucketIndex(bounds, x)]++
		sum += x
	}
	folded.Fold(counts, sum)
	if folded.Count() != live.Count() || math.Float64bits(folded.Sum()) != math.Float64bits(live.Sum()) {
		t.Fatalf("folded count %d sum %v, observed count %d sum %v", folded.Count(), folded.Sum(), live.Count(), live.Sum())
	}
	for i := range counts {
		if folded.BucketCount(i) != live.BucketCount(i) {
			t.Errorf("bucket %d: folded %d, observed %d", i, folded.BucketCount(i), live.BucketCount(i))
		}
	}
	if live.BucketCount(len(bounds)) == 0 {
		t.Error("no value reached the +Inf bucket")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h, _ := newHistogram(LatencyBuckets())
	var wg sync.WaitGroup
	const workers, per = 8, 5000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("count = %d, want %d", h.Count(), workers*per)
	}
	want := 0.001 * workers * per
	if math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
}

func TestLatencyBucketsStrictlyIncreasing(t *testing.T) {
	b := LatencyBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("LatencyBuckets not strictly increasing at %d: %v", i, b)
		}
	}
}

func TestRegistryIdempotentAndSorted(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("b_total")
	c2 := r.Counter("b_total")
	if c1 != c2 {
		t.Fatal("re-registering a counter returned a different instance")
	}
	r.Gauge("a_level")
	h1 := r.Histogram("c_seconds", []float64{1, 2})
	h2 := r.Histogram("c_seconds", []float64{1, 2})
	if h1 != h2 {
		t.Fatal("re-registering a histogram returned a different instance")
	}
	names := r.Names()
	want := []string{"a_level", "b_total", "c_seconds"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	assertPanics(t, "gauge over counter", func() { r.Gauge("x") })
	assertPanics(t, "histogram over counter", func() { r.Histogram("x", []float64{1}) })
	r.Histogram("h", []float64{1, 2})
	assertPanics(t, "histogram bound count change", func() { r.Histogram("h", []float64{1}) })
	assertPanics(t, "histogram bound value change", func() { r.Histogram("h", []float64{1, 3}) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	f()
}
