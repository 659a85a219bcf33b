package sim

import (
	"testing"
	"testing/quick"
)

// TestStepPrimitives drives the engine through the decomposed hot-path
// API directly: HasPendingEvents / PeekNextEventTime / ProcessNextEvent
// must be equivalent to Run, one event at a time.
func TestStepPrimitives(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })

	if !e.HasPendingEvents() {
		t.Fatal("no pending events after scheduling")
	}
	if at, ok := e.PeekNextEventTime(); !ok || at != 10 {
		t.Fatalf("PeekNextEventTime = %v, %v; want 10, true", at, ok)
	}
	if !e.ProcessNextEvent() {
		t.Fatal("ProcessNextEvent found nothing")
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v after first step", e.Now())
	}
	if at, ok := e.PeekNextEventTime(); !ok || at != 20 {
		t.Fatalf("PeekNextEventTime = %v, %v; want 20, true", at, ok)
	}
	for e.ProcessNextEvent() {
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.HasPendingEvents() {
		t.Fatal("events pending after drain")
	}
	if _, ok := e.PeekNextEventTime(); ok {
		t.Fatal("PeekNextEventTime reported an event on an empty engine")
	}
	if e.ProcessNextEvent() {
		t.Fatal("ProcessNextEvent fired on an empty engine")
	}
}

// TestPoolReusesRecords pins the free-list: after an event fires or is
// cancelled its record is reused by the next At, rather than a fresh
// allocation per schedule.
func TestPoolReusesRecords(t *testing.T) {
	e := New()
	h1 := e.At(1, func() {})
	first := h1.ev
	e.Run()
	h2 := e.At(2, func() {})
	if h2.ev != first {
		t.Error("fired event record was not recycled")
	}
	h2.Cancel()
	h3 := e.At(3, func() {})
	if h3.ev != first {
		t.Error("cancelled event record was not recycled")
	}
}

// TestRecycleClearsCallback is the closure-retention regression test:
// both firing and cancelling must nil the stored callback so whatever
// it captured is collectable immediately.
func TestRecycleClearsCallback(t *testing.T) {
	e := New()
	big := make([]byte, 1)
	h := e.At(5, func() { _ = big })
	h.Cancel()
	if h.ev.fn != nil {
		t.Error("Cancel left the callback set; its captures stay pinned")
	}
	h2 := e.At(6, func() { _ = big })
	e.Run()
	if h2.ev.fn != nil {
		t.Error("firing left the callback set on the recycled record")
	}
}

// TestStaleHandleCannotCancelRecycledEvent: a handle to an event that
// already fired must not cancel the unrelated event now occupying the
// recycled record.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := New()
	h1 := e.At(1, func() {})
	e.Run()
	fired := false
	h2 := e.At(2, func() { fired = true })
	if h1.ev != h2.ev {
		t.Fatal("test premise broken: record was not recycled")
	}
	h1.Cancel() // stale: must be a no-op
	if h2.Cancelled() {
		t.Fatal("stale Cancel marked the new incarnation cancelled")
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled the recycled record's new event")
	}
}

// TestCancelledSurvivesRecycling: Cancelled() keeps answering for the
// incarnation the handle refers to even after the record is reused.
func TestCancelledSurvivesRecycling(t *testing.T) {
	e := New()
	h := e.At(1, func() {})
	h.Cancel()
	reused := e.At(2, func() {})
	if !h.Cancelled() {
		t.Error("cancelled handle lost its state after recycling")
	}
	if reused.Cancelled() {
		t.Error("new incarnation reports cancelled")
	}
	e.Run()
	if reused.Cancelled() {
		t.Error("fired handle reports cancelled")
	}
}

// TestCancelMidHeap: in-place removal must keep the heap ordered when
// the cancelled event sits in the middle of the schedule.
func TestCancelMidHeap(t *testing.T) {
	e := New()
	var order []Time
	var handles []Handle
	times := []Time{50, 10, 40, 20, 30, 60, 15, 45, 25, 35}
	for _, at := range times {
		at := at
		handles = append(handles, e.At(at, func() { order = append(order, at) }))
	}
	// Cancel 40, 20, 60 — middle and leaf positions.
	handles[2].Cancel()
	handles[3].Cancel()
	handles[5].Cancel()
	if e.Pending() != len(times)-3 {
		t.Fatalf("Pending = %d after 3 in-place cancels", e.Pending())
	}
	e.Run()
	want := []Time{10, 15, 25, 30, 35, 45, 50}
	if len(order) != len(want) {
		t.Fatalf("fired %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestReserveSeqsOrdersLikeUpfrontScheduling: an event scheduled lazily
// with a reserved sequence number ties with equal-time events exactly
// as if it had been scheduled at reservation time.
func TestReserveSeqsOrdersLikeUpfrontScheduling(t *testing.T) {
	e := New()
	base := e.ReserveSeqs(2)
	var order []string
	// Scheduled after reservation, so its seq is higher than base+1.
	e.At(10, func() { order = append(order, "late") })
	e.AtSeq(5, base, func() {
		// Reserved slot 1 lands at the same time as "late" but must
		// fire first: its sequence number predates "late"'s.
		e.AtSeq(10, base+1, func() { order = append(order, "reserved") })
	})
	e.Run()
	if len(order) != 2 || order[0] != "reserved" || order[1] != "late" {
		t.Fatalf("order = %v, want [reserved late]", order)
	}
}

// TestQuickPoolCancelSubset re-runs the cancel-subset property through
// heavy pool churn: interleaved schedule/cancel/fire cycles must fire
// exactly the non-cancelled events.
func TestQuickPoolCancelSubset(t *testing.T) {
	f := func(rawTimes []uint16, mask uint64) bool {
		e := New()
		firedCount, wantCount := 0, 0
		for round := 0; round < 2; round++ {
			for i, rt := range rawTimes {
				at := e.Now() + Time(rt)
				h := e.At(at, func() { firedCount++ })
				if mask&(1<<(uint(i)%64)) != 0 {
					h.Cancel()
				} else {
					wantCount++
				}
			}
			e.Run()
		}
		return firedCount == wantCount
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleFireZeroAllocs is the pool's allocation gate: once the
// free-list (and any lane ring) is primed, scheduling and firing events
// allocates nothing, on the heap or on a fixed-delay lane.
func TestScheduleFireZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	for _, tc := range []struct {
		name  string
		lanes []Duration
	}{
		{"heap", nil},
		{"lane-and-heap", []Duration{1}},
		{"lanes", []Duration{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			for _, d := range tc.lanes {
				e.AddLane(d)
			}
			fn := func() {}
			// Prime the pool.
			for i := 0; i < 64; i++ {
				e.After(1, fn)
				e.After(2, fn)
			}
			e.Run()
			avg := testing.AllocsPerRun(1000, func() {
				e.After(1, fn)
				e.After(2, fn)
				e.Run()
			})
			if avg != 0 {
				t.Errorf("schedule/fire allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestCancelZeroAllocs: cancel is allocation-free too — in place on the
// heap, and as a tombstone the lane head later skips.
func TestCancelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	for _, tc := range []struct {
		name  string
		lanes []Duration
	}{
		{"heap", nil},
		{"lane", []Duration{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			for _, d := range tc.lanes {
				e.AddLane(d)
			}
			fn := func() {}
			for i := 0; i < 64; i++ {
				e.After(1, fn)
			}
			e.Run()
			avg := testing.AllocsPerRun(1000, func() {
				h := e.After(1, fn)
				h.Cancel()
				e.Run() // drops a lane tombstone; fires nothing
			})
			if avg != 0 {
				t.Errorf("schedule/cancel allocates %.2f allocs/op, want 0", avg)
			}
			if e.Pending() != 0 || e.Fired() != 64 {
				t.Errorf("Pending = %d, Fired = %d after cancels only, want 0, 64", e.Pending(), e.Fired())
			}
		})
	}
}

func BenchmarkEngineCancel(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := e.After(Duration(i%64), fn)
		h.Cancel()
	}
}
