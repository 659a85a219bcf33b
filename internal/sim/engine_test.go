package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if d := FromSeconds(0.5); d != 500*Millisecond {
		t.Fatalf("FromSeconds(0.5) = %v", d)
	}
	if s := (250 * Millisecond).Seconds(); s != 0.25 {
		t.Fatalf("Seconds = %v", s)
	}
	if ms := (3 * Second).Milliseconds(); ms != 3000 {
		t.Fatalf("Milliseconds = %v", ms)
	}
	tm := Time(0).Add(2 * Second)
	if tm.Seconds() != 2 {
		t.Fatalf("Add = %v", tm)
	}
	if d := tm.Sub(Time(Second)); d != Duration(Second) {
		t.Fatalf("Sub = %v", d)
	}
}

func TestFromSecondsPanicsOnNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for NaN seconds")
		}
	}()
	FromSeconds(math.NaN())
}

func TestEngineOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func(int) { order = append(order, 3) }, 0)
	e.At(10, func(int) { order = append(order, 1) }, 0)
	e.At(20, func(int) { order = append(order, 2) }, 0)
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final time = %v", e.Now())
	}
	if e.Fired() != 3 {
		t.Fatalf("fired = %d", e.Fired())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(int) { order = append(order, i) }, 0)
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var hits []Time
	e.At(10, func(int) {
		hits = append(hits, e.Now())
		e.After(5, func(int) { hits = append(hits, e.Now()) }, 0)
	}, 0)
	e.Run()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(10, func(int) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func(int) {}, 0)
	}, 0)
	e.Run()
}

func TestEngineNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	New().At(1, nil, 0)
}

func TestEngineNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative After did not panic")
		}
	}()
	New().After(-1, func(int) {}, 0)
}

func TestEngineStop(t *testing.T) {
	e := New()
	count := 0
	e.At(1, func(int) { count++; e.Stop() }, 0)
	e.At(2, func(int) { count++ }, 0)
	e.Run()
	if count != 1 {
		t.Fatalf("Stop did not halt run: count = %d", count)
	}
	e.Run() // resume
	if count != 2 {
		t.Fatalf("resume failed: count = %d", count)
	}
}

func TestEngineEvery(t *testing.T) {
	e := New()
	var at []Time
	e.Every(func() Duration { return 10 }, func() {
		at = append(at, e.Now())
		if len(at) == 3 {
			e.Stop()
		}
	})
	e.Run()
	if len(at) != 3 || at[0] != 10 || at[1] != 20 || at[2] != 30 {
		t.Fatalf("periodic fires = %v", at)
	}
}

func TestEngineEveryVariableInterval(t *testing.T) {
	e := New()
	intervals := []Duration{5, 15, 25}
	i := 0
	var at []Time
	e.Every(func() Duration {
		d := intervals[i%len(intervals)]
		i++
		return d
	}, func() {
		at = append(at, e.Now())
		if len(at) == 3 {
			e.Stop()
		}
	})
	e.Run()
	want := []Time{5, 20, 45}
	if len(at) != len(want) {
		t.Fatalf("fires = %v, want %v", at, want)
	}
	for j := range want {
		if at[j] != want[j] {
			t.Fatalf("fires = %v, want %v", at, want)
		}
	}
}

// Property: for arbitrary event times, execution order is the sorted
// order, and the clock is non-decreasing throughout.
func TestQuickEngineSortsEvents(t *testing.T) {
	f := func(rawTimes []uint32) bool {
		e := New()
		var fired []Time
		for _, rt := range rawTimes {
			at := Time(rt % 1000000)
			e.At(at, func(int) { fired = append(fired, at) }, 0)
		}
		last := Time(-1)
		ok := true
		e.At(1000001, func(int) {}, 0) // sentinel to flush
		e.Run()
		for _, ft := range fired {
			if ft < last {
				ok = false
			}
			last = ft
		}
		sorted := append([]Time(nil), fired...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range sorted {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return ok && len(fired) == len(rawTimes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%64), func(int) {}, 0)
		for e.Pending() > 1024 {
			e.ProcessNextEvent()
		}
	}
	e.Run()
}
