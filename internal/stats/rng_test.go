package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestRNGSeedChangesStream(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestRNGReseed(t *testing.T) {
	r := NewRNG(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Seed(7)
	for i := range first {
		if v := r.Uint64(); v != first[i] {
			t.Fatalf("reseeded stream diverged at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	for n := 1; n <= 17; n++ {
		seen := make([]bool, n)
		for i := 0; i < 200*n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		for v, ok := range seen {
			if !ok {
				t.Fatalf("Intn(%d) never produced %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, draws = 10, 500000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.03 {
			t.Fatalf("Intn(%d): value %d count %d deviates >3%% from %v", n, v, c, want)
		}
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := NewRNG(8)
	s := NewSummary(false)
	for i := 0; i < 200000; i++ {
		s.Add(r.ExpFloat64())
	}
	if math.Abs(s.Mean()-1) > 0.02 {
		t.Fatalf("exp mean %v, want ~1", s.Mean())
	}
	if math.Abs(s.Std()-1) > 0.03 {
		t.Fatalf("exp std %v, want ~1", s.Std())
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(9)
	s := NewSummary(false)
	for i := 0; i < 200000; i++ {
		s.Add(r.NormFloat64())
	}
	if math.Abs(s.Mean()) > 0.02 {
		t.Fatalf("normal mean %v, want ~0", s.Mean())
	}
	if math.Abs(s.Std()-1) > 0.02 {
		t.Fatalf("normal std %v, want ~1", s.Std())
	}
}

func TestChooseDistinct(t *testing.T) {
	r := NewRNG(13)
	scratch := make([]int, 16)
	dst := make([]int, 4)
	for trial := 0; trial < 1000; trial++ {
		r.Choose(dst, 16, scratch)
		seen := map[int]bool{}
		for _, v := range dst {
			if v < 0 || v >= 16 {
				t.Fatalf("Choose produced out-of-range %d", v)
			}
			if seen[v] {
				t.Fatalf("Choose produced duplicate in %v", dst)
			}
			seen[v] = true
		}
	}
}

func TestChooseCoversAll(t *testing.T) {
	r := NewRNG(14)
	scratch := make([]int, 5)
	dst := make([]int, 2)
	hits := make([]int, 5)
	for trial := 0; trial < 5000; trial++ {
		r.Choose(dst, 5, scratch)
		for _, v := range dst {
			hits[v]++
		}
	}
	for v, c := range hits {
		if c == 0 {
			t.Fatalf("Choose never selected %d", v)
		}
	}
}

func TestChoosePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choose with k>n did not panic")
		}
	}()
	r := NewRNG(1)
	r.Choose(make([]int, 3), 2, make([]int, 2))
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(21)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams overlap: %d/100 identical", same)
	}
}

// Property: Intn output is always within range for arbitrary seeds and n.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: mul64 agrees with big-integer multiplication on the low and
// high words for arbitrary inputs.
func TestQuickMul64(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		// Verify via 32-bit schoolbook on the reference path.
		wantLo := a * b
		// hi = floor(a*b / 2^64): recompute independently.
		aHi, aLo := a>>32, a&0xffffffff
		bHi, bLo := b>>32, b&0xffffffff
		carry := (aLo*bLo)>>32 + (aHi*bLo)&0xffffffff + (aLo*bHi)&0xffffffff
		wantHi := aHi*bHi + (aHi*bLo)>>32 + (aLo*bHi)>>32 + carry>>32
		return lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkRNGIntn16(b *testing.B) {
	r := NewRNG(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(16)
	}
	_ = sink
}
