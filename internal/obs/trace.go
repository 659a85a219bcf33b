package obs

import "sync"

// Event is one structured trace record. Events describe protocol-level
// decisions (a poll sent, an answer discarded, a server quarantined) so
// a failing run can be replayed from its trace rather than from log
// text. Fields are fixed-width on purpose: emitting an event allocates
// nothing beyond the ring slot it overwrites.
//
// The schema (documented in DESIGN.md §7) is:
//
//	Seq   monotonically increasing sequence number, first event = 1
//	T     simulated run time in seconds
//	Name  event name, e.g. "poll.discard" or "client.quarantine"
//	Actor who emitted it ("client:2", "server:0", "sim")
//	A, B  two event-specific integer arguments (target server, queue
//	      length, round number — per-event meaning listed in DESIGN.md)
type Event struct {
	Seq   uint64  `json:"seq"`
	T     float64 `json:"t"`
	Name  string  `json:"name"`
	Actor string  `json:"actor"`
	A     int64   `json:"a,omitempty"`
	B     int64   `json:"b,omitempty"`
}

// Trace is a fixed-capacity ring buffer of events. When full, new
// events overwrite the oldest — a trace bounds memory by construction,
// unlike a log. All methods are safe for concurrent use, and every
// method is nil-safe so instrumented code can call Emit unconditionally
// whether or not the run asked for a trace.
//
// Only the simulator emits events, and its event sequences are a
// deterministic function of the run's seed and spec, which lets tests
// assert on exact traces.
type Trace struct {
	mu   sync.Mutex
	buf  []Event
	seq  uint64 // total events ever emitted
	next int    // ring write position
}

// NewTrace returns a trace holding up to capacity events (minimum 1).
func NewTrace(capacity int) *Trace {
	if capacity < 1 {
		capacity = 1
	}
	return &Trace{buf: make([]Event, 0, capacity)}
}

// Emit records one event. Nil-safe: a nil trace drops it for free.
func (t *Trace) Emit(ts float64, name, actor string, a, b int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	e := Event{Seq: t.seq, T: ts, Name: name, Actor: actor, A: a, B: b}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.mu.Unlock()
}

// Events returns the retained events oldest-first.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if len(t.buf) == cap(t.buf) {
		// Full ring: the oldest retained event sits at the write position.
		out = append(out, t.buf[t.next:]...)
	}
	out = append(out, t.buf[:t.next]...)
	return out
}

// Len returns how many events are retained.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Total returns how many events were ever emitted (retained + dropped).
func (t *Trace) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Dropped returns how many events were overwritten by ring wrap.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq - uint64(len(t.buf))
}
