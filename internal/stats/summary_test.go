package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryBasic(t *testing.T) {
	s := NewSummary(true)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if math.Abs(s.Var()-2.5) > 1e-12 {
		t.Fatalf("var = %v, want 2.5", s.Var())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary(false)
	if s.Mean() != 0 || s.Var() != 0 || s.Std() != 0 || s.StdErr() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	s := NewSummary(true)
	s.Add(7)
	if s.Var() != 0 {
		t.Fatalf("single-sample var = %v", s.Var())
	}
	if s.Percentile(0.5) != 7 {
		t.Fatalf("single-sample median = %v", s.Percentile(0.5))
	}
}

func TestSummaryPercentile(t *testing.T) {
	s := NewSummary(true)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {1, 100}, {0.5, 50.5}, {0.25, 25.75}, {0.99, 99.01},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%.0f = %v, want %v", c.p*100, got, c.want)
		}
	}
}

func TestSummaryPercentilePanics(t *testing.T) {
	s := NewSummary(false)
	s.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Percentile on moments-only summary did not panic")
		}
	}()
	s.Percentile(0.5)
}

func TestSummaryFracAbove(t *testing.T) {
	s := NewSummary(true)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if f := s.FracAbove(8); math.Abs(f-0.2) > 1e-12 {
		t.Fatalf("FracAbove(8) = %v, want 0.2", f)
	}
	if f := s.FracAbove(10); f != 0 {
		t.Fatalf("FracAbove(max) = %v, want 0", f)
	}
	if f := s.FracAbove(0); f != 1 {
		t.Fatalf("FracAbove(below min) = %v, want 1", f)
	}
}

func TestSummaryAddInterleavedPercentile(t *testing.T) {
	// Percentile must stay correct when Adds and Percentile queries
	// interleave (internal sort invalidation).
	s := NewSummary(true)
	s.AddAll([]float64{5, 1, 3})
	if got := s.Percentile(1); got != 5 {
		t.Fatalf("max = %v", got)
	}
	s.Add(9)
	if got := s.Percentile(1); got != 9 {
		t.Fatalf("max after add = %v", got)
	}
}

func TestSummaryMerge(t *testing.T) {
	all := NewSummary(true)
	a := NewSummary(true)
	b := NewSummary(true)
	r := NewRNG(77)
	for i := 0; i < 1000; i++ {
		v := r.Float64() * 10
		all.Add(v)
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.Merge(b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Fatalf("merged mean %v vs %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.Var()-all.Var()) > 1e-9 {
		t.Fatalf("merged var %v vs %v", a.Var(), all.Var())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged extrema wrong")
	}
	if math.Abs(a.Percentile(0.5)-all.Percentile(0.5)) > 1e-9 {
		t.Fatal("merged percentiles wrong")
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	a := NewSummary(true)
	b := NewSummary(true)
	b.Add(4)
	a.Merge(b) // into empty
	if a.N() != 1 || a.Mean() != 4 {
		t.Fatalf("merge into empty: %v", a)
	}
	a.Merge(NewSummary(true)) // from empty
	if a.N() != 1 {
		t.Fatalf("merge from empty changed N: %d", a.N())
	}
}

func TestTimeWeighted(t *testing.T) {
	var w TimeWeighted
	w.Set(0, 2)  // value 2 on [0,10)
	w.Set(10, 4) // value 4 on [10,20)
	got := w.Finish(20)
	if math.Abs(got-3) > 1e-12 {
		t.Fatalf("time-weighted mean = %v, want 3", got)
	}
	if w.Duration() != 20 {
		t.Fatalf("duration = %v", w.Duration())
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var w TimeWeighted
	if w.Mean() != 0 {
		t.Fatalf("empty mean = %v", w.Mean())
	}
}

func TestTimeWeightedPanicsOnBackwardsTime(t *testing.T) {
	var w TimeWeighted
	w.Set(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on decreasing time")
		}
	}()
	w.Set(4, 2)
}

// Property: Welford moments match the naive two-pass computation.
func TestQuickSummaryMatchesNaive(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		s := NewSummary(false)
		s.AddAll(xs)
		var sum float64
		for _, v := range xs {
			sum += v
		}
		mean := sum / float64(len(xs))
		var m2 float64
		for _, v := range xs {
			m2 += (v - mean) * (v - mean)
		}
		variance := m2 / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(mean))
		return math.Abs(s.Mean()-mean)/scale < 1e-9 &&
			math.Abs(s.Var()-variance)/math.Max(1, variance) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge is equivalent to adding all samples to one summary,
// for arbitrary splits.
func TestQuickMergeEquivalence(t *testing.T) {
	f := func(raw []float64, splitRaw uint8) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		split := int(splitRaw) % (len(xs) + 1)
		whole := NewSummary(false)
		whole.AddAll(xs)
		a := NewSummary(false)
		a.AddAll(xs[:split])
		b := NewSummary(false)
		b.AddAll(xs[split:])
		a.Merge(b)
		return a.N() == whole.N() &&
			math.Abs(a.Mean()-whole.Mean()) < 1e-6*math.Max(1, math.Abs(whole.Mean())) &&
			a.Min() == whole.Min() && a.Max() == whole.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := NewSummary(true)
		s.AddAll(xs)
		ps := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = s.Percentile(p)
		}
		if !sort.Float64sAreSorted(vals) {
			return false
		}
		return vals[0] == s.Min() && vals[len(vals)-1] == s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarySamples(t *testing.T) {
	s := NewSummary(true)
	s.AddAll([]float64{3, 1, 2})
	got := s.Samples()
	if len(got) != 3 {
		t.Fatalf("samples %v", got)
	}
	// Mutating the copy must not affect the summary.
	got[0] = 99
	if s.Max() != 3 {
		t.Fatal("Samples returned a live reference")
	}
	mo := NewSummary(false)
	mo.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Samples on moments-only summary did not panic")
		}
	}()
	mo.Samples()
}

// TestSummaryReserveZeroAllocs: after Reserve(n), the next n Adds never
// regrow the sample slice; a moments-only summary reserves nothing.
func TestSummaryReserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	s := NewSummary(true)
	s.Add(1)
	s.Reserve(1001) // AllocsPerRun makes one warm-up call
	if avg := testing.AllocsPerRun(1000, func() { s.Add(2) }); avg != 0 {
		t.Errorf("Add after Reserve allocates %.2f allocs/op, want 0", avg)
	}
	if s.N() != 1+1001 || s.Percentile(1) != 2 {
		t.Errorf("N = %d, max = %v after reserved adds", s.N(), s.Percentile(1))
	}
	mo := NewSummary(false)
	mo.Reserve(1000)
	if cap(mo.samples) != 0 {
		t.Errorf("moments-only summary reserved %d samples", cap(mo.samples))
	}
}
