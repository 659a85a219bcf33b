// Package sim implements a deterministic discrete-event simulation
// engine: a binary heap of events ordered by simulated time with FIFO
// tie-breaking, FIFO lanes beside it for declared fixed delays, an
// integer-nanosecond clock, and periodic timers.
//
// The engine is intentionally minimal; domain models (servers, clients,
// networks) live in higher-level packages and are expressed as
// callbacks scheduled on the engine.
//
// A scheduled event is a value — its time, its sequence number, a
// callback and one integer argument — stored in the heap or lane slot
// it waits in, so firing it reads that slot and nothing else. A model
// binds each of its callbacks once and passes the id of the record an
// event concerns as the argument; steady-state scheduling then
// allocates nothing, and a slot is zeroed when its event fires, so a
// fired callback is not kept reachable by the schedule. Run loops over
// ProcessNextEvent, which a caller can also drive one event at a time.
//
// A scheduled event cannot be cancelled: a model that must void one
// tags its argument with a generation and ignores a stale event when it
// fires.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in simulated time, in nanoseconds since the start of
// the run.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t - u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns d expressed in seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns d expressed in milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// FromSeconds converts a float64 number of seconds into a Duration,
// rounding to the nearest nanosecond.
func FromSeconds(s float64) Duration {
	if math.IsNaN(s) || math.IsInf(s, 0) {
		panic(fmt.Sprintf("sim: FromSeconds(%v)", s))
	}
	return Duration(math.Round(s * float64(Second)))
}

func (t Time) String() string     { return fmt.Sprintf("%.6fs", t.Seconds()) }
func (d Duration) String() string { return fmt.Sprintf("%.6fs", d.Seconds()) }

// entry is one scheduled event, held by value: fn(arg) runs at time at.
// Events with equal times fire in sequence order (seq), making runs
// fully deterministic; (at, seq) is the event's key.
type entry struct {
	at  Time
	seq uint64
	fn  func(int)
	arg int
}

// before orders entries by key: earlier times first, FIFO within a
// time.
//
//lint:noalloc
func (x *entry) before(y *entry) bool {
	return x.at < y.at || x.at == y.at && x.seq < y.seq
}

// lane is a FIFO ring of the events scheduled exactly delay after the
// moment they were scheduled. The clock never runs backwards and
// sequence numbers only grow, so entries arrive in (at, seq) order and
// the ring is sorted by construction. Freed slots are reused in place,
// so the ring's size tracks the lane's in-flight high-water mark.
type lane struct {
	delay Duration
	ring  []entry
	head  int // ring index of the oldest entry
	n     int // queued entries
}

// push queues x behind every earlier entry.
//
//lint:noalloc
func (l *lane) push(x entry) {
	if l.n == len(l.ring) {
		l.grow()
	}
	i := l.head + l.n
	if i >= len(l.ring) {
		i -= len(l.ring)
	}
	l.ring[i] = x
	l.n++
}

// grow doubles a full ring, unwrapping its entries to start at index 0.
//
//lint:noalloc (the doubling below is the one sanctioned mint)
func (l *lane) grow() {
	//lint:allow noalloc the ring doubles once per doubling of the lane's in-flight high-water mark, then is reused forever
	ring := make([]entry, max(2*len(l.ring), 1))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// pop removes and returns the oldest entry, zeroing its slot.
//
//lint:noalloc
func (l *lane) pop() entry {
	x := l.ring[l.head]
	l.ring[l.head] = entry{}
	l.head++
	if l.head == len(l.ring) {
		l.head = 0
	}
	l.n--
	return x
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engine is not safe for concurrent use.
type Engine struct {
	now   Time
	heap  []entry // binary min-heap ordered by (at, seq)
	lanes []lane  // one FIFO per declared fixed delay

	seq     uint64
	stopped bool
	nFired  uint64
	nLane   uint64 // events fired from a lane
}

// New returns a fresh engine at time 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.nFired }

// LaneFired returns how many of the Fired events came from a lane, so a
// caller can check that the delays it declared are the ones it uses.
func (e *Engine) LaneFired() uint64 { return e.nLane }

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int {
	n := len(e.heap)
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

// AddLane declares a fixed delay d: from then on, every At or After
// whose time is exactly d past now is queued on a FIFO lane instead of
// the heap. A lane is already in (time, sequence) order, so firing the
// earliest of the heap top and the lane heads reproduces the one-heap
// order exactly; lanes only make that order cheaper to find when many
// events share a delay. Declaring a delay twice is a no-op. AtSeq
// events never use a lane.
func (e *Engine) AddLane(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative lane delay %v", d))
	}
	if e.laneFor(d) == nil {
		e.lanes = append(e.lanes, lane{delay: d})
	}
}

// laneFor returns the lane declared for delay d, or nil.
//
//lint:noalloc
func (e *Engine) laneFor(d Duration) *lane {
	for i := range e.lanes {
		if e.lanes[i].delay == d {
			return &e.lanes[i]
		}
	}
	return nil
}

// admit validates and builds the entry for fn(arg) at t with sequence
// number seq. Scheduling in the past panics — that is always a model
// bug.
//
//lint:noalloc
func (e *Engine) admit(t Time, seq uint64, fn func(int), arg int) entry {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	return entry{at: t, seq: seq, fn: fn, arg: arg}
}

// At schedules fn(arg) to run at absolute time t. Scheduling in the
// past panics — that is always a model bug.
//
//lint:noalloc
func (e *Engine) At(t Time, fn func(int), arg int) {
	x := e.admit(t, e.seq, fn, arg)
	e.seq++
	if l := e.laneFor(t.Sub(e.now)); l != nil {
		l.push(x)
	} else {
		heapPush(&e.heap, x)
	}
}

// ReserveSeqs reserves n consecutive sequence numbers and returns the
// first. Events scheduled later via AtSeq with a reserved number order
// among equal-time events exactly as if they had been scheduled — in
// reservation order — at the moment of reservation. This is how a
// caller streams a large pre-determined event population (e.g. arrival
// processes) lazily without perturbing FIFO tie-breaking.
func (e *Engine) ReserveSeqs(n uint64) uint64 {
	base := e.seq
	e.seq += n
	return base
}

// AtSeq schedules fn(arg) at absolute time t with an explicit sequence
// number previously obtained from ReserveSeqs; each reserved number
// names one event. The same past- and nil-callback panics as At apply.
// A reserved number may be older than a lane's entries, so AtSeq events
// always go on the heap.
//
//lint:noalloc
func (e *Engine) AtSeq(t Time, seq uint64, fn func(int), arg int) {
	heapPush(&e.heap, e.admit(t, seq, fn, arg))
}

// After schedules fn(arg) to run d from now. Negative d panics.
//
//lint:noalloc
func (e *Engine) After(d Duration, fn func(int), arg int) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now.Add(d), fn, arg)
}

// Stop makes the currently running Run return after the in-flight
// event completes.
func (e *Engine) Stop() { e.stopped = true }

// ProcessNextEvent pops the earliest event by key — the heap top or a
// lane head — advances the clock to its time, and runs its callback.
// It returns false when nothing is pending. The event's slot is freed
// before the callback runs, so scheduling inside callbacks reuses it
// immediately.
//
//lint:noalloc
func (e *Engine) ProcessNextEvent() bool {
	src := -1
	var x *entry
	if len(e.heap) > 0 {
		x = &e.heap[0]
	}
	for i := range e.lanes {
		if l := &e.lanes[i]; l.n > 0 {
			if y := &l.ring[l.head]; x == nil || y.before(x) {
				src, x = i, y
			}
		}
	}
	if x == nil {
		return false
	}
	var ev entry
	if src < 0 {
		ev = heapPop(&e.heap)
	} else {
		ev = e.lanes[src].pop()
		e.nLane++
	}
	e.now = ev.at
	e.nFired++
	ev.fn(ev.arg)
	return true
}

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.ProcessNextEvent() {
	}
}

// Every schedules fn at now+interval(), then repeatedly at successive
// intervals, for as long as the engine runs. interval is re-evaluated
// for every period, which is how jittered broadcast timers are built,
// and a negative interval panics as in After. fn runs before the next
// period is scheduled. The period callback is bound once, so a running
// timer allocates nothing.
func (e *Engine) Every(interval func() Duration, fn func()) {
	var tick func(int)
	tick = func(int) {
		fn()
		e.After(interval(), tick, 0)
	}
	e.After(interval(), tick, 0)
}

// heapPush adds x to the min-heap h.
//
//lint:noalloc
func heapPush(h *[]entry, x entry) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = x
}

// heapPop removes and returns the minimum of the non-empty min-heap h,
// zeroing the slot it vacates.
//
//lint:noalloc
func heapPop(h *[]entry) entry {
	s := *h
	top := s[0]
	n := len(s) - 1
	x := s[n]
	s[n] = entry{}
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && s[right].before(&s[child]) {
			child = right
		}
		if !s[child].before(&x) {
			break
		}
		s[i] = s[child]
		i = child
	}
	s[i] = x
	return top
}
