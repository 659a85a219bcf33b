package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestStepPrimitives drives the engine through the decomposed hot-path
// API directly: HasPendingEvents / PeekNextEventTime / ProcessNextEvent
// must be equivalent to Run, one event at a time.
func TestStepPrimitives(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func(int) { order = append(order, 3) }, 0)
	e.At(10, func(int) { order = append(order, 1) }, 0)
	e.At(20, func(int) { order = append(order, 2) }, 0)

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

// heldCallbacks counts the slots of e's storage, spare capacity
// included, that still hold a callback.
func heldCallbacks(e *Engine) int {
	n := 0
	count := func(slots []entry) {
		for _, x := range slots {
			if x.fn != nil {
				n++
			}
		}
	}
	count(e.heap[:cap(e.heap)])
	count(e.dead[:cap(e.dead)])
	count(e.early[:cap(e.early)])
	for _, l := range e.lanes {
		count(l.ring)
	}
	return n
}

// TestPoolReusesRecords pins slot reuse: the heap and lane slots an
// event leaves, by firing or by its cancelled entry coming up, take the
// next events scheduled, with no allocation.
func TestPoolReusesRecords(t *testing.T) {
	e := New()
	e.AddLane(1)
	nop := func(int) {}
	e.After(5, nop, 0) // heap
	e.After(1, nop, 0) // lane
	heapSlot, laneSlot := &e.heap[0], &e.lanes[0].ring[0]
	e.Run()
	e.After(2, nop, 0)
	e.After(1, nop, 0)
	if &e.heap[0] != heapSlot || len(e.lanes[0].ring) != 1 || &e.lanes[0].ring[0] != laneSlot {
		t.Error("fired events' slots were not reused")
	}
	e.Run()
	h1, h2 := e.After(2, nop, 0), e.After(1, nop, 0)
	h1.Cancel()
	h2.Cancel()
	e.Run() // drops both dead entries
	e.After(2, nop, 0)
	e.After(1, nop, 0)
	if &e.heap[0] != heapSlot || len(e.lanes[0].ring) != 1 || &e.lanes[0].ring[0] != laneSlot {
		t.Error("cancelled events' slots were not reused")
	}
	e.Run()
	if raceEnabled {
		return // allocation accounting is not stable under -race
	}
	if avg := testing.AllocsPerRun(100, func() {
		e.After(2, nop, 0)
		e.After(1, nop, 0).Cancel()
		e.Run()
	}); avg != 0 {
		t.Errorf("reusing slots allocates %.2f times per cycle, want 0", avg)
	}
}

// TestRecycleClearsCallback is the closure-retention regression test:
// a slot is zeroed when its event fires and when its cancelled entry
// comes up, on the heap and on a lane, so the schedule keeps no
// callback (or anything it captured) reachable.
func TestRecycleClearsCallback(t *testing.T) {
	e := New()
	e.AddLane(1)
	big := make([]byte, 1)
	fn := func(int) { _ = big }
	e.After(5, fn, 0).Cancel()
	e.After(1, fn, 0).Cancel()
	e.After(6, fn, 0)
	e.After(1, fn, 0)
	if n := heldCallbacks(e); n != 4 {
		t.Fatalf("%d slots hold a callback before running, want 4", n)
	}
	e.Run()
	if n := heldCallbacks(e); n != 0 {
		t.Errorf("%d slots still hold a callback after every event fired or was dropped", n)
	}
}

// TestStaleHandleCannotCancelRecycledEvent: a handle to an event that
// already fired must not cancel the unrelated event now occupying the
// slot it left.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	e := New()
	h1 := e.At(1, func(int) {}, 0)
	slot := &e.heap[0]
	e.Run()
	fired := false
	h2 := e.At(2, func(int) { fired = true }, 0)
	if &e.heap[0] != slot {
		t.Fatal("test premise broken: slot was not reused")
	}
	h1.Cancel() // stale: must be a no-op
	if h2.Cancelled() || h1.Cancelled() {
		t.Fatal("stale Cancel marked an event cancelled")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d after a stale Cancel, want 1", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled the new event in its slot")
	}
}

// TestCancelledSurvivesRecycling: Cancelled() keeps answering for the
// event the handle names even after another event, at the same time,
// is scheduled beside it.
func TestCancelledSurvivesRecycling(t *testing.T) {
	e := New()
	h := e.At(1, func(int) {}, 0)
	h.Cancel()
	reused := e.At(1, func(int) {}, 0)
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

// TestCancelAtSeqAndStaleKeys covers the keys Cancel must tell apart:
// a reserved-sequence (AtSeq) event cancelled before it fires, and one
// whose handle is cancelled after it fired; a lane event; and an early
// key, an AtSeq event scheduled at the current time whose reserved
// number sorts before an event that already fired. The early event is
// still queued, so Cancel must take it; once it has fired, its handle is
// inert like any other.
func TestCancelAtSeqAndStaleKeys(t *testing.T) {
	e := New()
	e.AddLane(3)
	var fired []string
	note := func(name string) func(int) {
		return func(int) { fired = append(fired, name) }
	}
	base := e.ReserveSeqs(4)

	// Reserved events, one cancelled before it fires.
	dropped := e.AtSeq(2, base, note("dropped"), 0)
	kept := e.AtSeq(2, base+1, note("kept"), 0)
	dropped.Cancel()
	if !dropped.Cancelled() || e.Pending() != 1 {
		t.Fatalf("Cancelled = %v, Pending = %d after cancelling a reserved event", dropped.Cancelled(), e.Pending())
	}
	// A lane event, cancelled.
	lane := e.After(3, note("lane"), 0)
	lane.Cancel()
	if !lane.Cancelled() || e.Pending() != 1 {
		t.Fatalf("Cancelled = %v, Pending = %d after cancelling a lane event", lane.Cancelled(), e.Pending())
	}
	e.RunUntil(5)
	if len(fired) != 1 || fired[0] != "kept" {
		t.Fatalf("fired %v, want [kept]", fired)
	}
	kept.Cancel() // fired: inert
	dropped.Cancel()
	lane.Cancel()
	if kept.Cancelled() || dropped.Cancelled() || lane.Cancelled() || e.Pending() != 0 {
		t.Fatalf("handles of events already past acted: Pending = %d", e.Pending())
	}

	// Early keys: "now" fires at 10 with a fresh sequence number, then
	// schedules two events at 10 with the older reserved numbers.
	var early, fires Handle
	e.At(10, func(int) {
		fired = append(fired, "now")
		early = e.AtSeq(10, base+2, note("early"), 0)
		fires = e.AtSeq(10, base+3, note("fires"), 0)
		early.Cancel()
		if !early.Cancelled() || e.Pending() != 1 {
			t.Errorf("Cancelled = %v, Pending = %d after cancelling an early event", early.Cancelled(), e.Pending())
		}
	}, 0)
	e.Run()
	if got := fmt.Sprint(fired); got != "[kept now fires]" {
		t.Fatalf("fired %s, want [kept now fires]", got)
	}
	fires.Cancel() // fired early event: inert
	early.Cancel()
	if fires.Cancelled() || early.Cancelled() || e.Pending() != 0 || len(e.early) != 0 || len(e.dead) != 0 {
		t.Fatalf("stale early handles acted: Pending = %d, %d early and %d dead keys kept", e.Pending(), len(e.early), len(e.dead))
	}
	// A stale handle never reaches a later event.
	later := e.After(1, note("later"), 0)
	fires.Cancel()
	kept.Cancel()
	if later.Cancelled() || e.Pending() != 1 {
		t.Fatal("a stale handle cancelled a later event")
	}
}

// TestCancelMidHeap: cancelling events in the middle of the heap keeps
// every other event in order.
func TestCancelMidHeap(t *testing.T) {
	e := New()
	var order []Time
	var handles []Handle
	times := []Time{50, 10, 40, 20, 30, 60, 15, 45, 25, 35}
	for _, at := range times {
		at := at
		handles = append(handles, e.At(at, func(int) { order = append(order, at) }, 0))
	}
	// Cancel 40, 20, 60 — middle and leaf positions.
	handles[2].Cancel()
	handles[3].Cancel()
	handles[5].Cancel()
	if e.Pending() != len(times)-3 {
		t.Fatalf("Pending = %d after 3 mid-heap cancels", e.Pending())
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
	e.At(10, func(int) { order = append(order, "late") }, 0)
	e.AtSeq(5, base, func(int) {
		// Reserved slot 1 lands at the same time as "late" but must
		// fire first: its sequence number predates "late"'s.
		e.AtSeq(10, base+1, func(int) { order = append(order, "reserved") }, 0)
	}, 0)
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
				h := e.At(at, func(int) { firedCount++ }, 0)
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

// TestScheduleFireZeroAllocs is the engine's allocation gate: once the
// heap and any lane ring have grown to the in-flight population, scheduling and firing events
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
			fn := func(int) {}
			// Prime the pool.
			for i := 0; i < 64; i++ {
				e.After(1, fn, 0)
				e.After(2, fn, 0)
			}
			e.Run()
			avg := testing.AllocsPerRun(1000, func() {
				e.After(1, fn, 0)
				e.After(2, fn, 0)
				e.Run()
			})
			if avg != 0 {
				t.Errorf("schedule/fire allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestCancelZeroAllocs: cancel is allocation-free too, on the heap and
// on a lane: the dead key's entry is dropped when it comes up.
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
			fn := func(int) {}
			for i := 0; i < 64; i++ {
				e.After(1, fn, 0)
			}
			e.Run()
			avg := testing.AllocsPerRun(1000, func() {
				h := e.After(1, fn, 0)
				h.Cancel()
				e.Run() // drops the dead entry; fires nothing
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
	fn := func(int) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := e.After(Duration(i%64), fn, 0)
		h.Cancel()
		if i%64 == 63 {
			e.Run() // drops the dead entries, keeping the schedule small
		}
	}
}
