package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// checkMoments samples d and verifies the empirical mean/std track the
// analytic ones within tol (relative).
func checkMoments(t *testing.T, d Dist, n int, tol float64) {
	t.Helper()
	r := NewRNG(1234)
	s := NewSummary(false)
	for i := 0; i < n; i++ {
		v := d.Sample(r)
		if v < 0 {
			t.Fatalf("%v produced negative sample %v", d, v)
		}
		s.Add(v)
	}
	if m := d.Mean(); math.Abs(s.Mean()-m)/m > tol {
		t.Errorf("%v: empirical mean %v vs analytic %v", d, s.Mean(), m)
	}
	if sd := d.Std(); sd > 0 && math.Abs(s.Std()-sd)/sd > 2*tol {
		t.Errorf("%v: empirical std %v vs analytic %v", d, s.Std(), sd)
	}
}

func TestExponentialMoments(t *testing.T) {
	checkMoments(t, Exponential{MeanValue: 50e-3}, 200000, 0.02)
}

func TestDeterministic(t *testing.T) {
	d := Deterministic{Value: 3.25}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if v := d.Sample(r); v != 3.25 {
			t.Fatalf("Deterministic sample %v", v)
		}
	}
	if d.Mean() != 3.25 || d.Std() != 0 {
		t.Fatalf("Deterministic moments wrong: %v %v", d.Mean(), d.Std())
	}
}

func TestLognormalFromMoments(t *testing.T) {
	cases := []struct{ mean, std float64 }{
		{28.9e-3, 62.9e-3}, // Medium-Grain trace service time
		{2.22e-3, 1.0e-3},  // Fine-Grain trace service time
		{1, 2},
		{100, 10},
	}
	for _, c := range cases {
		d := LognormalFromMoments(c.mean, c.std)
		if math.Abs(d.Mean()-c.mean)/c.mean > 1e-9 {
			t.Errorf("analytic mean %v, want %v", d.Mean(), c.mean)
		}
		if math.Abs(d.Std()-c.std)/c.std > 1e-9 {
			t.Errorf("analytic std %v, want %v", d.Std(), c.std)
		}
		checkMoments(t, d, 400000, 0.05)
	}
}

func TestLognormalPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-positive mean")
		}
	}()
	LognormalFromMoments(0, 1)
}

func TestParetoMoments(t *testing.T) {
	checkMoments(t, Pareto{Xm: 1, Alpha: 3.5}, 400000, 0.05)
}

func TestParetoInfiniteMoments(t *testing.T) {
	if m := (Pareto{Xm: 1, Alpha: 0.9}).Mean(); !math.IsInf(m, 1) {
		t.Fatalf("alpha<=1 mean = %v, want +Inf", m)
	}
	if s := (Pareto{Xm: 1, Alpha: 1.5}).Std(); !math.IsInf(s, 1) {
		t.Fatalf("alpha<=2 std = %v, want +Inf", s)
	}
}

func TestScaled(t *testing.T) {
	base := Exponential{MeanValue: 2}
	d := Scaled{D: base, Factor: 0.25}
	if d.Mean() != 0.5 || d.Std() != 0.5 {
		t.Fatalf("scaled moments %v %v", d.Mean(), d.Std())
	}
	checkMoments(t, d, 200000, 0.02)
}

func TestCVZeroMean(t *testing.T) {
	if cv := CV(Deterministic{Value: 0}); cv != 0 {
		t.Fatalf("CV of zero-mean dist = %v", cv)
	}
}

// Property: LognormalFromMoments round-trips arbitrary positive moments.
func TestQuickLognormalRoundTrip(t *testing.T) {
	f := func(mRaw, sRaw uint16) bool {
		mean := float64(mRaw%1000+1) / 100 // (0.01, 10]
		std := float64(sRaw%2000+1) / 100  // (0.01, 20]
		d := LognormalFromMoments(mean, std)
		return math.Abs(d.Mean()-mean)/mean < 1e-9 &&
			math.Abs(d.Std()-std)/std < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: all samples from every distribution family are non-negative
// and finite.
func TestQuickSamplesNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		dists := []Dist{
			Exponential{MeanValue: 1},
			LognormalFromMoments(1, 2),
			Pareto{Xm: 0.5, Alpha: 2.2},
		}
		for _, d := range dists {
			for i := 0; i < 20; i++ {
				v := d.Sample(r)
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
