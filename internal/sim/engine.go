// Package sim implements a deterministic discrete-event simulation
// engine: an indexed event heap ordered by simulated time with FIFO
// tie-breaking, FIFO lanes beside it for declared fixed delays, an
// integer-nanosecond clock, and cancellable timers.
//
// The engine is intentionally minimal; domain models (servers, clients,
// networks) live in higher-level packages and are expressed as
// callbacks scheduled on the engine.
//
// The hot path is built from three step primitives —
// HasPendingEvents, PeekNextEventTime, and ProcessNextEvent — so
// callers can drive the clock themselves (multi-engine loops, bounded
// stepping) while Run and RunUntil remain thin wrappers. Event records
// are recycled through a free-list: steady-state scheduling performs
// no allocation, and a recycled event's callback is cleared so fired
// or cancelled closures never pin their captures.
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

// event is a scheduled callback. Events with equal times fire in
// sequence order (seq), making runs fully deterministic. Event records
// are pooled: gen identifies the current incarnation so stale Handles
// from earlier incarnations become no-ops instead of acting on a
// recycled record.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	index int // position in the heap; inLane while on a lane; -1 while on the free-list

	// gen is incremented every time the record is recycled (fire or
	// cancel). A Handle is live only while its gen matches.
	gen uint64
	// cancelledGen records the incarnation that was last cancelled, so
	// Handle.Cancelled stays answerable after the record is recycled.
	cancelledGen uint64
}

// inLane is event.index for a record queued on a fixed-delay lane.
const inLane = -2

// Handle identifies a scheduled event and allows cancelling it.
// The zero Handle is valid and inert.
type Handle struct {
	eng *Engine
	ev  *event
	gen uint64
}

// Cancel removes the event from the schedule and clears its callback
// immediately, so a cancelled closure's captures are released at
// cancel time rather than when the slot would have surfaced. A heap
// event is removed in place (O(log n) via its heap index); a lane
// event leaves a tombstone entry that the lane head skips by
// generation check and Pending never counts. Cancelling an
// already-fired or already-cancelled event is a no-op.
func (h Handle) Cancel() {
	ev := h.ev
	if ev == nil || ev.gen != h.gen {
		return // already fired or cancelled (record recycled)
	}
	ev.cancelledGen = h.gen
	if ev.index == inLane {
		h.eng.laneLive--
	} else {
		h.eng.removeAt(ev.index)
	}
	h.eng.recycle(ev)
}

// Cancelled reports whether the handle's event was cancelled before it
// fired. (A handle whose event record has since been cancelled again in
// a later incarnation reports false; distinct incarnations never share
// a generation.)
func (h Handle) Cancelled() bool {
	return h.ev != nil && h.ev.gen != h.gen && h.ev.cancelledGen == h.gen
}

// laneEntry is one queued lane event. at and seq are copied out of the
// record so comparing lane heads never touches it; gen is the record's
// incarnation when queued, so a cancelled (recycled) record reads as a
// tombstone.
type laneEntry struct {
	at  Time
	seq uint64
	ev  *event
	gen uint64
}

// lane is a FIFO ring of the events scheduled exactly delay after the
// moment they were scheduled. The clock never runs backwards and
// sequence numbers only grow, so entries arrive in (at, seq) order and
// the ring is sorted by construction. Freed slots are reused in place,
// so the ring's size tracks the lane's in-flight high-water mark.
type lane struct {
	delay Duration
	ring  []laneEntry
	head  int // ring index of the oldest entry
	n     int // queued entries, tombstones included
}

// push queues x behind every earlier entry.
//
//lint:noalloc
func (l *lane) push(x laneEntry) {
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
	ring := make([]laneEntry, max(2*len(l.ring), 1))
	k := copy(ring, l.ring[l.head:])
	copy(ring[k:], l.ring[:l.head])
	l.ring, l.head = ring, 0
}

// front returns the oldest live entry, first dropping tombstones, or
// nil when the lane holds none.
//
//lint:noalloc
func (l *lane) front() *laneEntry {
	for l.n > 0 {
		x := &l.ring[l.head]
		if x.ev.gen == x.gen {
			return x
		}
		l.pop()
	}
	return nil
}

// pop drops the oldest entry.
//
//lint:noalloc
func (l *lane) pop() {
	l.head++
	if l.head == len(l.ring) {
		l.head = 0
	}
	l.n--
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engine is not safe for concurrent use.
type Engine struct {
	now      Time
	events   []*event // indexed binary min-heap ordered by (at, seq)
	lanes    []lane   // one FIFO per declared fixed delay
	laneLive int      // live (non-tombstone) lane entries across all lanes
	seq      uint64
	stopped  bool
	nFired   uint64
	nLane    uint64   // events fired from a lane
	free     []*event // recycled event records
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

// Pending returns the number of scheduled events. Cancelled events are
// never counted, whether removed from the heap or left as lane
// tombstones.
func (e *Engine) Pending() int { return len(e.events) + e.laneLive }

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

// alloc takes an event record from the free-list, or mints one.
//
//lint:noalloc (the free-list miss below is the one sanctioned mint)
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	//lint:allow noalloc the free-list miss mints one record per pool-depth high-water mark, then recycles forever
	return &event{gen: 1, index: -1}
}

// recycle retires an event record to the free-list. The callback is
// cleared here — this is the pool's memory guarantee: a fired or
// cancelled closure (and everything it captures) is unreachable the
// moment its event leaves the schedule.
//
//lint:noalloc
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.index = -1
	e.free = append(e.free, ev)
}

// schedule validates and builds the record for fn at t with sequence
// number seq. Scheduling in the past panics — that is always a model
// bug.
//
//lint:noalloc
func (e *Engine) schedule(t Time, seq uint64, fn func()) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = t, seq, fn
	return ev
}

// At schedules fn to run at absolute time t. Scheduling in the past
// panics — that is always a model bug.
//
//lint:noalloc
func (e *Engine) At(t Time, fn func()) Handle {
	ev := e.schedule(t, e.seq, fn)
	e.seq++
	if l := e.laneFor(t.Sub(e.now)); l != nil {
		ev.index = inLane
		l.push(laneEntry{at: t, seq: ev.seq, ev: ev, gen: ev.gen})
		e.laneLive++
	} else {
		e.push(ev)
	}
	return Handle{eng: e, ev: ev, gen: ev.gen}
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

// AtSeq schedules fn at absolute time t with an explicit sequence
// number previously obtained from ReserveSeqs. The same past- and
// nil-callback panics as At apply. A reserved number may be older than
// a lane's entries, so AtSeq events always go on the heap.
//
//lint:noalloc
func (e *Engine) AtSeq(t Time, seq uint64, fn func()) Handle {
	ev := e.schedule(t, seq, fn)
	e.push(ev)
	return Handle{eng: e, ev: ev, gen: ev.gen}
}

// After schedules fn to run d from now. Negative d panics.
//
//lint:noalloc
func (e *Engine) After(d Duration, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now.Add(d), fn)
}

// Stop makes the currently running Run/RunUntil return after the
// in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// HasPendingEvents reports whether any event remains scheduled.
func (e *Engine) HasPendingEvents() bool { return e.Pending() > 0 }

// next locates the earliest pending event by (at, seq): the heap top
// (src < 0) or lane src's head. ok is false when nothing is pending.
//
//lint:noalloc
func (e *Engine) next() (src int, at Time, ok bool) {
	src = -1
	var seq uint64
	if len(e.events) > 0 {
		top := e.events[0]
		at, seq, ok = top.at, top.seq, true
	}
	for i := range e.lanes {
		x := e.lanes[i].front()
		if x != nil && (!ok || x.at < at || x.at == at && x.seq < seq) {
			src, at, seq, ok = i, x.at, x.seq, true
		}
	}
	return src, at, ok
}

// PeekNextEventTime returns the time of the earliest scheduled event
// without firing it. The boolean is false when nothing is pending.
func (e *Engine) PeekNextEventTime() (Time, bool) {
	_, at, ok := e.next()
	return at, ok
}

// ProcessNextEvent pops the earliest event, advances the clock to its
// time, and runs its callback. It returns false when nothing is
// pending. The event record is recycled before the callback runs, so
// steady-state scheduling inside callbacks reuses it immediately.
//
//lint:noalloc
func (e *Engine) ProcessNextEvent() bool {
	return e.step(math.MaxInt64)
}

// step fires the next event if its time is within limit.
//
//lint:noalloc
func (e *Engine) step(limit Time) bool {
	src, at, ok := e.next()
	if !ok || at > limit {
		return false
	}
	var ev *event
	if src < 0 {
		ev = e.events[0]
		e.removeAt(0)
	} else {
		l := &e.lanes[src]
		ev = l.ring[l.head].ev
		l.pop()
		e.laneLive--
		e.nLane++
	}
	e.now = at
	e.nFired++
	fn := ev.fn
	e.recycle(ev)
	fn()
	return true
}

// Run executes events until none remain or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step(math.MaxInt64) {
	}
}

// RunUntil executes events with time <= t, then advances the clock to
// t. Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	e.stopped = false
	for !e.stopped && e.step(t) {
	}
	if !e.stopped {
		e.now = t
	}
}

// Every schedules fn at now+interval(), then repeatedly at successive
// intervals, until the returned stop function is called. interval is
// re-evaluated for every period, which is how jittered broadcast timers
// are built, and a negative interval panics as in After. fn runs before
// the next period is scheduled. The period callback is bound once, so a
// running timer allocates nothing.
func (e *Engine) Every(interval func() Duration, fn func()) (stop func()) {
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			e.After(interval(), tick)
		}
	}
	e.After(interval(), tick)
	return func() { stopped = true }
}

// less orders events by (time, sequence): earlier times first, FIFO
// within a time.
func less(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push appends ev and restores the heap property upward.
//
//lint:noalloc
func (e *Engine) push(ev *event) {
	ev.index = len(e.events)
	e.events = append(e.events, ev)
	e.up(ev.index)
}

// removeAt deletes the event at heap position i in O(log n), keeping
// every surviving event's index current.
//
//lint:noalloc
func (e *Engine) removeAt(i int) {
	h := e.events
	n := len(h) - 1
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	e.events = h[:n]
	if i < n {
		if !e.down(i) {
			e.up(i)
		}
	}
}

// up sifts the event at position i toward the root.
//
//lint:noalloc
func (e *Engine) up(i int) {
	h := e.events
	ev := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !less(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = ev
	ev.index = i
}

// down sifts the event at position i toward the leaves, reporting
// whether it moved.
//
//lint:noalloc
func (e *Engine) down(i int) bool {
	h := e.events
	n := len(h)
	ev := h[i]
	start := i
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && less(h[right], h[left]) {
			child = right
		}
		if !less(h[child], ev) {
			break
		}
		h[i] = h[child]
		h[i].index = i
		i = child
	}
	h[i] = ev
	ev.index = i
	return i > start
}
