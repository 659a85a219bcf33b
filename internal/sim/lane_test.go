package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refEvent is one pending event of the reference schedule.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refMin returns the index of the earliest reference event by
// (at, seq), the order a single heap fires in.
func refMin(pend []refEvent) int {
	best := 0
	for i, x := range pend[1:] {
		b := pend[best]
		if x.at < b.at || x.at == b.at && x.seq < b.seq {
			best = i + 1
		}
	}
	return best
}

// TestQuickLanesMatchReferenceOrder drives an engine with fixed-delay
// lanes through random programs — lane delays, other delays, and AtSeq
// events from reserved bands, scheduled inside callbacks and between
// steps — beside a reference schedule that fires the minimum (at, seq)
// by linear scan. Every fired event must be the reference minimum,
// Pending must equal the reference population, and every event must
// fire.
func TestQuickLanesMatchReferenceOrder(t *testing.T) {
	lanes := []Duration{3, 7, 10}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		for _, d := range lanes {
			e.AddLane(d)
		}
		e.AddLane(7) // duplicates are ignored

		var (
			pend  []refEvent
			seq   uint64 // mirrors the engine's sequence counter
			fired []bool
			band  struct{ next, end uint64 }
			ok    = true
		)
		const maxEvents = 400

		var schedule func()
		// One callback serves every event; the event id rides in its
		// argument.
		fire := func(id int) {
			if len(pend) == 0 {
				ok = false
				return
			}
			i := refMin(pend)
			if pend[i].id != id || pend[i].at != e.Now() {
				ok = false
			}
			pend = append(pend[:i], pend[i+1:]...)
			fired[id] = true
			for k := rng.Intn(3); k > 0; k-- {
				schedule()
			}
			if e.Pending() != len(pend) {
				ok = false
			}
		}
		schedule = func() {
			id := len(fired)
			if id >= maxEvents {
				return
			}
			var ev refEvent
			switch rng.Intn(5) {
			case 0, 1: // a lane delay, through After or At
				d := lanes[rng.Intn(len(lanes))]
				ev = refEvent{at: e.Now().Add(d), seq: seq, id: id}
				if rng.Intn(2) == 0 {
					e.After(d, fire, id)
				} else {
					e.At(ev.at, fire, id)
				}
				seq++
			case 2, 3: // any delay, lane or not
				ev = refEvent{at: e.Now().Add(Duration(rng.Intn(13))), seq: seq, id: id}
				e.At(ev.at, fire, id)
				seq++
			default: // an AtSeq event from a reserved band
				if band.next == band.end {
					n := uint64(1 + rng.Intn(4))
					band.next = e.ReserveSeqs(n)
					band.end = band.next + n
					if band.next != seq {
						ok = false
					}
					seq += n
				}
				ev = refEvent{at: e.Now().Add(Duration(rng.Intn(13))), seq: band.next, id: id}
				e.AtSeq(ev.at, band.next, fire, id)
				band.next++
			}
			fired = append(fired, false)
			pend = append(pend, ev)
		}

		for k := 0; k < 20; k++ {
			schedule()
		}
		for ok && e.ProcessNextEvent() {
			if e.Pending() != len(pend) {
				ok = false
			}
			if len(pend) == 0 && rng.Intn(2) == 0 {
				schedule() // a scheduling burst from outside any callback
			}
		}
		if len(pend) != 0 {
			return false
		}
		for _, f := range fired {
			if !f {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAddLaneNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative lane delay did not panic")
		}
	}()
	New().AddLane(-1)
}

// advance fires every event due by now+d, in order, and leaves the clock
// at now+d: it schedules a marker there and steps until the marker
// fires.
func advance(e *Engine, d Duration) {
	reached := false
	e.After(d, func(int) { reached = true }, 0)
	for !reached && e.ProcessNextEvent() {
	}
}

// TestLaneCapacityBounded is the lanes' memory contract: at a steady
// in-flight population, 10⁶ schedule/fire cycles keep every lane's ring
// within twice its peak occupancy. An append-only lane would grow with
// the cycle count instead.
func TestLaneCapacityBounded(t *testing.T) {
	e := New()
	e.AddLane(50)
	e.AddLane(90)
	fn := func(int) {}
	peak := make([]int, len(e.lanes))
	for i := 0; i < 1000000; i++ {
		switch i % 4 {
		case 0, 1:
			e.After(50, fn, 0)
		case 2:
			e.After(90, fn, 0)
		default:
			e.After(Duration(i%37), fn, 0)
		}
		for j := range e.lanes {
			peak[j] = max(peak[j], e.lanes[j].n)
		}
		if i%2 == 1 {
			advance(e, 1)
		}
	}
	e.Run()
	for j, l := range e.lanes {
		if peak[j] == 0 || len(l.ring) > 2*peak[j] {
			t.Errorf("lane %v: ring size %d for peak occupancy %d", l.delay, len(l.ring), peak[j])
		}
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after drain", e.Pending())
	}
}

// TestEveryZeroAllocs: a running periodic timer allocates nothing per
// period; its callback is bound once.
func TestEveryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	e := New()
	ticks := 0
	e.Every(func() Duration { return 3 }, func() { ticks++ })
	for i := 0; i < 100; i++ { // prime the pool
		e.ProcessNextEvent()
	}
	avg := testing.AllocsPerRun(1000, func() {
		e.ProcessNextEvent() // one period
	})
	if avg != 0 {
		t.Errorf("periodic timer allocates %.2f allocs/period, want 0", avg)
	}
	if ticks < 1000 {
		t.Errorf("ticks = %d, want one per period", ticks)
	}
}
