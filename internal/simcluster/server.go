package simcluster

import (
	"finelb/internal/core"
	"finelb/internal/membership"
	"finelb/internal/sim"
	"finelb/internal/stats"
)

// serverState models the paper's server — a FIFO queue feeding one
// non-preemptive processing unit, load index = queued + in service —
// as one compact record in the runner's value slice. Keeping all
// per-server state in a flat []serverState (no per-server engine or
// metrics pointers, no per-server heap allocations) is what lets a run
// hold 10k servers without pointer-chasing on every event.
type serverState struct {
	speed        float64 // work rate; demand d takes d/speed
	busyTime     sim.Duration
	curEnd       sim.Time     // when the job in service would complete
	curRemaining sim.Duration // remaining demand while paused
	curHandle    sim.Handle   // scheduled completion (cancellable)
	cur          *access      // the access in service
	qavg         stats.TimeWeighted
	series       *QSeries
	queue        []*access // FIFO ring: valid entries are queue[qhead:]
	qhead        int
	active       int // the load index
	busy         bool
	down         bool
	paused       bool
	hasCur       bool
}

// push appends a to the service queue, compacting the consumed prefix
// only when the backing array is full — amortized O(1), allocation-free
// once the queue has reached its high-water capacity.
//
//lint:noalloc
func (s *serverState) push(a *access) {
	if s.qhead > 0 && len(s.queue) == cap(s.queue) {
		n := copy(s.queue, s.queue[s.qhead:])
		for i := n; i < len(s.queue); i++ {
			s.queue[i] = nil
		}
		s.queue = s.queue[:n]
		s.qhead = 0
	}
	s.queue = append(s.queue, a)
}

// pop removes and returns the head of the service queue, or nil.
//
//lint:noalloc
func (s *serverState) pop() *access {
	if s.qhead == len(s.queue) {
		return nil
	}
	a := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue, s.qhead = s.queue[:0], 0
	}
	return a
}

// record samples server id's load index into its time-weighted average
// (and optional series) at the current simulated time.
//
//lint:noalloc
func (r *runner) record(id int) {
	s := &r.srv[id]
	now := r.eng.Now().Seconds()
	s.qavg.Set(now, float64(s.active))
	if s.series != nil {
		s.series.record(now, s.active)
	}
}

// serverArrive enqueues the access at its server; an access arriving at
// a crashed server fails immediately (the connection is refused), one
// arriving at a paused server queues behind the stalled processing
// unit.
//
//lint:noalloc
func (r *runner) serverArrive(a *access) {
	s := &r.srv[a.srv]
	if s.down {
		r.eng.After(r.cfg.ServiceNetDelay, a.onFail)
		return
	}
	s.active++
	r.rm.ServerActive.Add(1)
	r.record(a.srv)
	if s.busy || s.paused {
		s.push(a)
		return
	}
	r.startService(a)
}

// startService begins a's service on its (idle) server.
//
//lint:noalloc
func (r *runner) startService(a *access) {
	s := &r.srv[a.srv]
	s.busy = true
	r.rm.WorkersBusy.Add(1)
	d := sim.Duration(float64(a.service) / s.speed)
	s.busyTime += d
	s.cur, s.hasCur = a, true
	s.curEnd = r.eng.Now().Add(d)
	s.curHandle = r.eng.After(d, a.onService)
}

// serviceDone completes a's service: the next queued access starts, and
// the response travels back to the client. A server the autoscaler
// drained retires as soon as its queue empties.
//
//lint:noalloc
func (r *runner) serviceDone(a *access) {
	s := &r.srv[a.srv]
	s.hasCur = false
	s.cur = nil
	s.active--
	r.rm.ServerActive.Add(-1)
	r.rm.ServerServed.Inc()
	r.record(a.srv)
	s.busy = false
	r.rm.WorkersBusy.Add(-1)
	if next := s.pop(); next != nil {
		r.startService(next)
	} else if s.active == 0 && r.pool.Retiring(a.srv) {
		r.pool.Leave(a.srv)
	}
	r.eng.After(r.cfg.ServiceNetDelay, a.onDone)
}

// crash kills server id permanently: the in-service access and every
// queued access fail (their client connections break) and the load
// index drops to zero.
func (r *runner) crash(id int) {
	s := &r.srv[id]
	if s.down {
		return
	}
	s.down = true
	s.paused = false
	if s.hasCur {
		s.curHandle.Cancel()
		r.eng.After(r.cfg.ServiceNetDelay, s.cur.onFail)
		s.cur = nil
		s.hasCur = false
	}
	if s.busy {
		r.rm.WorkersBusy.Add(-1)
	}
	s.busy = false
	for a := s.pop(); a != nil; a = s.pop() {
		r.eng.After(r.cfg.ServiceNetDelay, a.onFail)
	}
	r.rm.ServerActive.Add(-int64(s.active))
	s.active = 0
	r.record(id)
	r.reindex(id)
}

// pause freezes server id's processing unit mid-job: the in-service
// access's completion is suspended with its remaining demand intact,
// and no queued access starts until resume.
func (r *runner) pause(id int) {
	s := &r.srv[id]
	if s.down || s.paused {
		return
	}
	s.paused = true
	if s.hasCur {
		s.curHandle.Cancel()
		s.curRemaining = s.curEnd.Sub(r.eng.Now())
	}
	r.reindex(id)
}

// resume unfreezes server id; the suspended access finishes its
// remaining demand, then the queue drains normally.
func (r *runner) resume(id int) {
	s := &r.srv[id]
	if s.down || !s.paused {
		return
	}
	s.paused = false
	r.reindex(id)
	if s.hasCur {
		a := s.cur
		s.curEnd = r.eng.Now().Add(s.curRemaining)
		s.curHandle = r.eng.After(s.curRemaining, a.onService)
		return
	}
	if !s.busy {
		if next := s.pop(); next != nil {
			r.startService(next)
		}
	}
}

// reindex enforces the index predicate: server id is in the IDEAL and
// LocalLeast indexes iff it is routable, not down, and not paused. A
// re-attached server keeps the load the index tracked while it was out.
func (r *runner) reindex(id int) {
	s := &r.srv[id]
	set := (*core.LoadIndex).Restore
	if !r.pool.Routable(id) || s.down || s.paused {
		set = (*core.LoadIndex).Remove
	}
	if r.commit != nil {
		set(r.commit, id)
	}
	for _, li := range r.local {
		set(li, id)
	}
}

// speedFor returns server id's work rate: its SpeedFactors entry when
// covered, 1.0 otherwise (ids an elastic run grows past the factors
// slice run at base speed).
func (r *runner) speedFor(id int) float64 {
	if r.cfg.SpeedFactors != nil && id < len(r.cfg.SpeedFactors) {
		return r.cfg.SpeedFactors[id]
	}
	return 1.0
}

// growTo extends the server slice (and every policy index) to hold ids
// below n. New servers are idle placeholders, detached from the indexes
// until they join. n never exceeds maxPool, so growth stays within the
// capacity reserved at construction — no reallocation, and no pointer
// into r.srv moves.
func (r *runner) growTo(n int) {
	for len(r.srv) < n {
		id := len(r.srv)
		r.srv = append(r.srv, serverState{speed: r.speedFor(id)})
		if r.cfg.RecordQueueSeries {
			r.srv[id].series = &QSeries{}
		}
	}
	if r.commit != nil {
		r.commit.Extend(n)
	}
	for _, li := range r.local {
		li.Extend(n)
	}
}

// The runner is its pool's membership.Substrate: joining grows the
// server slice, and every transition re-applies the index predicate.

// Start readies server id to join; a crashed server never comes back.
func (r *runner) Start(id int) bool {
	r.growTo(id + 1)
	return !r.srv[id].down
}

// serverEvent names each membership transition's trace event.
var serverEvent = [...]string{
	membership.Join:  "server.join",
	membership.Drain: "server.drain",
	membership.Leave: "server.leave",
}

// Changed attaches a joined server to the indexes (with whatever load
// it still carries) or detaches a drained one.
func (r *runner) Changed(kind membership.Kind, id int) {
	r.reindex(id)
	if kind == membership.Join {
		r.record(id)
	}
	r.emit(serverEvent[kind], r.serverActor, id, int64(r.pool.Size()), 0)
}

// Load returns server id's load index.
func (r *runner) Load(id int) int { return r.srv[id].active }
