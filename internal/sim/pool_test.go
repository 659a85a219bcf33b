package sim

import "testing"

// TestStepPrimitives drives the engine one event at a time: Pending and
// ProcessNextEvent must be equivalent to Run.
func TestStepPrimitives(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func(int) { order = append(order, 3) }, 0)
	e.At(10, func(int) { order = append(order, 1) }, 0)
	e.At(20, func(int) { order = append(order, 2) }, 0)

	if e.Pending() != 3 {
		t.Fatalf("Pending = %d after scheduling 3", e.Pending())
	}
	if !e.ProcessNextEvent() {
		t.Fatal("ProcessNextEvent found nothing")
	}
	if e.Now() != 10 || len(order) != 1 || order[0] != 1 {
		t.Fatalf("clock = %v, order = %v after first step", e.Now(), order)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after first step, want 2", e.Pending())
	}
	for e.ProcessNextEvent() {
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Pending() != 0 {
		t.Fatal("events pending after drain")
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
	for _, l := range e.lanes {
		count(l.ring)
	}
	return n
}

// TestPoolReusesRecords pins slot reuse: the heap and lane slots a fired
// event leaves take the next events scheduled, with no allocation.
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
	if raceEnabled {
		return // allocation accounting is not stable under -race
	}
	if avg := testing.AllocsPerRun(100, func() {
		e.After(2, nop, 0)
		e.After(1, nop, 0)
		e.Run()
	}); avg != 0 {
		t.Errorf("reusing slots allocates %.2f times per cycle, want 0", avg)
	}
}

// TestRecycleClearsCallback is the closure-retention regression test:
// a slot is zeroed when its event fires, on the heap and on a lane, so
// the schedule keeps no callback (or anything it captured) reachable.
func TestRecycleClearsCallback(t *testing.T) {
	e := New()
	e.AddLane(1)
	big := make([]byte, 1)
	fn := func(int) { _ = big }
	e.After(6, fn, 0)
	e.After(1, fn, 0)
	if n := heldCallbacks(e); n != 2 {
		t.Fatalf("%d slots hold a callback before running, want 2", n)
	}
	e.Run()
	if n := heldCallbacks(e); n != 0 {
		t.Errorf("%d slots still hold a callback after every event fired", n)
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
