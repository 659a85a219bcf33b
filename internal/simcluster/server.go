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
	gen          int          // completion generation; crash and pause bump it
	cur          int          // the id of the access in service
	qavg         stats.TimeWeighted
	series       *QSeries
	queue        []int // access ids, FIFO: valid entries are queue[qhead:]
	qhead        int
	active       int // the load index
	down         bool
	paused       bool
	hasCur       bool // an access is in service, or stalled in it while paused
}

// push appends access id to the service queue, compacting the consumed
// prefix only when the backing array is full — amortized O(1),
// allocation-free once the queue has reached its high-water capacity.
//
//lint:noalloc
func (s *serverState) push(id int) {
	if s.qhead > 0 && len(s.queue) == cap(s.queue) {
		n := copy(s.queue, s.queue[s.qhead:])
		s.queue = s.queue[:n]
		s.qhead = 0
	}
	s.queue = append(s.queue, id)
}

// pop removes and returns the id at the head of the service queue, or
// -1 when it is empty.
//
//lint:noalloc
func (s *serverState) pop() int {
	if s.qhead == len(s.queue) {
		return -1
	}
	id := s.queue[s.qhead]
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue, s.qhead = s.queue[:0], 0
	}
	return id
}

// setLoad mirrors server id's load index, or its silence while down or
// paused, into the dense load slice; every write of active, down or
// paused calls it.
//
//lint:noalloc
func (r *runner) setLoad(id int) {
	s := &r.srv[id]
	l := int32(s.active)
	if s.down || s.paused {
		l = -1
	}
	r.load[id] = l
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

// serverArrive enqueues access id at its server; an access arriving at
// a crashed server fails immediately (the connection is refused), one
// arriving at a paused server queues behind the stalled processing
// unit.
//
//lint:noalloc
func (r *runner) serverArrive(id int) {
	srv := r.accs.at(id).srv
	s := &r.srv[srv]
	if s.down {
		r.eng.After(DefaultServiceNetDelay, r.on.fail, id)
		return
	}
	s.active++
	r.serverActive.add(1)
	r.setLoad(srv)
	r.record(srv)
	if s.hasCur || s.paused {
		s.push(id)
		return
	}
	r.startService(id)
}

// startService begins access id's service on its (idle) server.
//
//lint:noalloc
func (r *runner) startService(id int) {
	a := r.accs.at(id)
	s := &r.srv[a.srv]
	r.workersBusy.add(1)
	d := sim.Duration(float64(a.service) / s.speed)
	s.busyTime += d
	s.cur, s.hasCur = id, true
	s.curEnd = r.eng.Now().Add(d)
	r.scheduleCompletion(a.srv, d)
}

// scheduleCompletion schedules server srv's completion d from now,
// tagged with the server's current generation above the server id.
//
//lint:noalloc
func (r *runner) scheduleCompletion(srv int, d sim.Duration) {
	r.eng.After(d, r.on.service, r.srv[srv].gen<<r.srvBits|srv)
}

// serviceDone completes the service in progress at the server its
// argument names (the completion event is keyed by server and
// generation, so the access record is not loaded first): the next
// queued access starts, and the response travels back to the client. A
// server the autoscaler drained retires as soon as its queue empties.
// A completion a crash or pause voided since it was scheduled carries a
// stale generation and does nothing.
//
//lint:noalloc
func (r *runner) serviceDone(arg int) {
	srv := arg & (1<<r.srvBits - 1)
	s := &r.srv[srv]
	if arg>>r.srvBits != s.gen {
		return
	}
	id := s.cur
	s.hasCur = false
	s.active--
	r.serverActive.add(-1)
	r.served++
	r.setLoad(srv)
	r.record(srv)
	r.workersBusy.add(-1)
	if next := s.pop(); next >= 0 {
		r.startService(next)
	} else if s.active == 0 && r.pool.Retiring(srv) {
		r.pool.Leave(srv)
	}
	r.eng.After(DefaultServiceNetDelay, r.on.done, id)
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
		s.gen++
		r.eng.After(DefaultServiceNetDelay, r.on.fail, s.cur)
		s.hasCur = false
		r.workersBusy.add(-1)
	}
	for acc := s.pop(); acc >= 0; acc = s.pop() {
		r.eng.After(DefaultServiceNetDelay, r.on.fail, acc)
	}
	r.serverActive.add(-int64(s.active))
	s.active = 0
	r.setLoad(id)
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
	r.setLoad(id)
	if s.hasCur {
		s.gen++
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
	r.setLoad(id)
	r.reindex(id)
	if s.hasCur {
		s.curEnd = r.eng.Now().Add(s.curRemaining)
		r.scheduleCompletion(id, s.curRemaining)
		return
	}
	if next := s.pop(); next >= 0 {
		r.startService(next)
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
		r.load = append(r.load, 0)
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

// Changed attaches a joined server to the indexes (with whatever load
// it still carries) or detaches a drained one.
func (r *runner) Changed(kind membership.Kind, id int) {
	r.reindex(id)
	if kind == membership.Join {
		r.record(id)
	}
}

// Load returns server id's load index.
func (r *runner) Load(id int) int { return r.srv[id].active }
