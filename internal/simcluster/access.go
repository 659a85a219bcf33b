package simcluster

import (
	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/sim"
)

// access is one in-flight service access. Records are pooled by the
// runner: a record is minted with its callbacks bound once and then
// recycled when the access completes or is lost, so the steady-state
// dispatch path schedules pooled engine events with pooled callbacks —
// no per-access closure allocation.
type access struct {
	idx     int
	client  int
	attempt int
	srv     int          // chosen server of the current dispatch
	start   sim.Time     // arrival time; response time is measured from it
	service sim.Duration // service demand
	pollDur sim.Duration // polling duration of the deciding round

	// Callbacks bound to this record for its lifetime (across recycles).
	runArrival func() // the access's arrival event
	onArrive   func() // service request reaches the server
	onService  func() // the server finishes the access's service
	onDone     func() // response lands back at the client
	onFail     func() // broken round trip lands back at the client
	onRetry    func() // backoff elapsed: re-run server selection
}

// newAccess takes an access record from the free-list, or mints one
// with its callbacks bound.
func (r *runner) newAccess() *access {
	if n := len(r.freeAcc); n > 0 {
		a := r.freeAcc[n-1]
		r.freeAcc[n-1] = nil
		r.freeAcc = r.freeAcc[:n-1]
		return a
	}
	a := &access{}
	a.runArrival = func() { r.arrival(a) }
	a.onArrive = func() { r.serverArrive(a) }
	a.onService = func() { r.serviceDone(a) }
	a.onDone = func() { r.accessDone(a) }
	a.onFail = func() { r.accessFailed(a) }
	a.onRetry = func() { r.handle(a) }
	return a
}

// recycle retires a finished access record to the free-list.
//
//lint:noalloc
func (r *runner) recycle(a *access) {
	r.freeAcc = append(r.freeAcc, a)
}

// scheduleArrival draws the next access from the workload stream and
// schedules its arrival event in the reserved sequence band.
//
//lint:noalloc
func (r *runner) scheduleArrival() {
	i := r.nextIdx
	r.nextIdx++
	acc := r.stream.Next()
	a := r.newAccess()
	a.idx = i
	a.client = i % r.cfg.Clients
	a.attempt = 0
	a.pollDur = 0
	a.service = sim.FromSeconds(acc.Service)
	r.eng.AtSeq(sim.Time(sim.FromSeconds(acc.Arrival)), r.arrivalBase+uint64(i), a.runArrival)
}

// arrival is one access's arrival event: chain the next arrival (the
// workload stream is monotone in arrival time), then run the policy
// decision for this one.
//
//lint:noalloc
func (r *runner) arrival(a *access) {
	if r.nextIdx < r.cfg.Accesses {
		r.scheduleArrival()
	}
	a.start = r.eng.Now()
	r.handle(a)
}

// candidates returns the client's current candidate set — the routable
// members minus the servers it has quarantined — and whether any
// member survived quarantine. When none did it returns every member:
// a client with nowhere believed-live to go still has to go somewhere.
//
//lint:noalloc
func (r *runner) candidates(client int) ([]int, bool) {
	if r.ft == nil {
		return r.pool.Members(), true
	}
	return r.ft.candidates(client, r.pool.Members())
}

// anyOf picks a uniformly random candidate.
//
//lint:noalloc
func (r *runner) anyOf(cands []int) int {
	return cands[r.policyRNG.Intn(len(cands))]
}

// handle runs the policy decision for one access (on arrival, and again
// after a broken round trip) over the client's current candidate set.
// With no faults and a fixed pool the candidates are every server, so
// each branch takes the paper model's draws exactly.
//
//lint:noalloc
func (r *runner) handle(a *access) {
	cands, fresh := r.candidates(a.client)
	a.pollDur = 0
	switch r.cfg.Policy.Kind {
	case core.Random:
		a.srv = r.anyOf(cands)
	case core.RoundRobin:
		a.srv = cands[r.rrs[a.client].Next(len(cands))]
	case core.Ideal:
		// O(1) via the committed-work index; equal loads go to the
		// lowest server id (deterministic JSQ). The oracle sees dead and
		// stalled servers directly — quarantine is the clients' crutch.
		a.srv = r.indexPick(r.commit, cands)
	case core.LocalLeast:
		a.srv = r.indexPick(r.local[a.client], cands)
	case core.Broadcast:
		tbl := r.tables[a.client]
		a.srv = tbl.PickLeast(r.policyRNG)
		if r.cfg.Policy.LocalCorrection {
			tbl.Increment(a.srv)
		}
	case core.Poll:
		if fresh {
			r.pollRound(a, 0, cands)
			return
		}
		// Every candidate quarantined: skip the pointless poll.
		a.srv = r.anyOf(cands)
	}
	r.dispatch(a)
}

// indexPick returns the least-loaded server of a load index, or a
// random candidate when the index holds none (every routable server is
// down or paused).
//
//lint:noalloc
func (r *runner) indexPick(x *core.LoadIndex, cands []int) int {
	if best := x.Min(); best >= 0 {
		return best
	}
	return r.anyOf(cands)
}

// pollCtx is one poll round's state, pooled like access records: its
// slices and per-slot observation callbacks are reused across rounds,
// so polling schedules only pooled events with pooled callbacks.
type pollCtx struct {
	a         *access
	round     int      // 0, then one more per silent-round retry
	start     sim.Time // when the inquiries went out
	deadline  sim.Time // poll timeout, capped by the discard threshold
	polled    []int
	respAt    []sim.Time
	answered  []bool
	responses []core.PollResponse
	obsFns    []func() // obsFns[i] observes polled[i] at the server
	decideFn  func()
	retryFn   func()
}

// newPollCtx takes a context from the free-list (or mints one) and
// ensures it has observation callbacks for d poll slots.
func (r *runner) newPollCtx(d int) *pollCtx {
	var c *pollCtx
	if n := len(r.freePoll); n > 0 {
		c = r.freePoll[n-1]
		r.freePoll[n-1] = nil
		r.freePoll = r.freePoll[:n-1]
	} else {
		c = &pollCtx{}
		c.decideFn = func() { r.decide(c) }
		c.retryFn = func() { r.repoll(c) }
	}
	for i := len(c.obsFns); i < d; i++ {
		i := i
		c.obsFns = append(c.obsFns, func() { r.observe(c, i) })
	}
	return c
}

// releasePoll returns a finished round's context to the free-list.
//
//lint:noalloc
func (r *runner) releasePoll(c *pollCtx) {
	c.a = nil
	r.freePoll = append(r.freePoll, c)
}

// pollRound sends one round of load inquiries to a random subset of the
// candidates. Each inquiry reads the server's load index halfway
// through its round trip (one observation event per slot that can
// answer in time), and one decide event closes the round when the last
// answer is due — or at the deadline, if some slot is dropped or late.
//
//lint:noalloc
func (r *runner) pollRound(a *access, round int, cands []int) {
	cfg := &r.cfg
	set := core.PollSet(r.policyRNG, len(cands), cfg.Policy.PollSize, r.pollDst, r.pollIdent, r.pollSwaps)
	c := r.newPollCtx(len(set))
	c.a, c.round, c.start = a, round, r.eng.Now()
	c.polled = c.polled[:0]
	for _, i := range set {
		c.polled = append(c.polled, cands[i])
	}
	r.res.Messages.PollRequests += int64(len(c.polled))
	r.rm.PollRequests.Add(int64(len(c.polled)))

	c.deadline = c.start.Add(DefaultPollTimeout)
	if d := cfg.Policy.DiscardAfter; d > 0 {
		c.deadline = min(c.deadline, c.start.Add(sim.FromSeconds(d.Seconds())))
	}
	c.respAt = c.respAt[:0]
	c.answered = c.answered[:0]
	c.responses = c.responses[:0]
	decideAt := c.start
	for i, srv := range c.polled {
		c.respAt = append(c.respAt, 0)
		c.answered = append(c.answered, false)
		drop, extra := r.ft.pollFault(a.client, srv)
		if drop {
			r.rm.InquiriesDropped.Inc() // lost datagram: silence until the deadline
			decideAt = c.deadline
			continue
		}
		rtt := cfg.PollRTT + extra
		if cfg.PollJitter != nil {
			rtt += sim.FromSeconds(cfg.PollJitter.Sample(r.jitterRNG))
		}
		c.respAt[i] = c.start.Add(rtt)
		if c.respAt[i] > c.deadline {
			// A live server's answer lands after the client has decided
			// without it.
			if s := &r.srv[srv]; !s.down && !s.paused {
				r.rm.PollLate.Inc()
				r.rm.InquiriesServed.Inc()
				r.rm.PollRTTSeconds.Observe(rtt.Seconds())
			}
			decideAt = c.deadline
			continue
		}
		decideAt = max(decideAt, c.respAt[i])
		r.eng.At(c.respAt[i].Add(-rtt/2), c.obsFns[i])
	}
	r.eng.At(decideAt, c.decideFn)
}

// observe is poll slot i's observation event: the inquiry reaches the
// server and reads its load index; the answer lands back at the client
// at respAt[i], within the deadline by construction. A crashed or
// stalled server stays silent.
//
//lint:noalloc
func (r *runner) observe(c *pollCtx, i int) {
	srv := c.polled[i]
	s := &r.srv[srv]
	if s.down || s.paused {
		r.rm.InquiriesDropped.Inc()
		return
	}
	c.answered[i] = true
	c.responses = append(c.responses, core.PollResponse{Server: srv, Load: s.active})
	r.res.Messages.PollResponses++
	r.rm.PollResponses.Inc()
	r.rm.InquiriesServed.Inc()
	r.rm.PollRTTSeconds.Observe(c.respAt[i].Sub(c.start).Seconds())
}

// decide closes a poll round and dispatches. A slot that fell silent
// at observation moves the decision to the deadline; a round nobody
// answered retries after a backoff when fault handling is on, and after
// faults.DefaultPollRetries silent rounds falls back to a random
// candidate.
//
//lint:noalloc
func (r *runner) decide(c *pollCtx) {
	a := c.a
	now := r.eng.Now()
	if len(c.responses) < len(c.polled) && now < c.deadline {
		r.eng.At(c.deadline, c.decideFn)
		return
	}
	missing := int64(len(c.polled) - len(c.responses))
	r.res.Messages.PollsDiscarded += missing
	r.rm.PollDiscards.Add(missing)
	for i, srv := range c.polled {
		if c.answered[i] {
			r.ft.noteAnswered(a.client, srv)
		} else {
			r.ft.noteSilent(a.client, srv)
			r.emit("poll.discard", r.clientActor, a.client, int64(srv), int64(a.idx))
		}
	}
	a.pollDur = now.Sub(a.start)
	switch {
	case len(c.responses) > 0 || r.ft == nil:
		// With no answers (all discarded) PickFromPolls picks a random
		// polled server, the prototype's discard fallback.
		a.srv = core.PickFromPolls(r.policyRNG, c.responses, c.polled)
	case c.round < faults.DefaultPollRetries:
		r.res.Retries++
		r.rm.Retries.Inc()
		r.emit("poll.retry", r.clientActor, a.client, int64(c.round), int64(a.idx))
		r.eng.After(r.ft.backoff(c.round), c.retryFn)
		return
	default:
		// Every round was silence: random fallback among the servers
		// still believed live.
		cands, _ := r.candidates(a.client)
		a.srv = r.anyOf(cands)
	}
	r.releasePoll(c)
	r.dispatch(a)
}

// repoll is a silent round's retry, after its backoff: poll the fresh
// candidates again, or go random if the client has quarantined them all.
//
//lint:noalloc
func (r *runner) repoll(c *pollCtx) {
	a, round := c.a, c.round+1
	r.releasePoll(c)
	cands, fresh := r.candidates(a.client)
	if fresh {
		r.pollRound(a, round, cands)
		return
	}
	a.srv = r.anyOf(cands)
	a.pollDur = r.eng.Now().Sub(a.start)
	r.dispatch(a)
}

// dispatch sends the access to a.srv; the response lands back at the
// client via onDone (or onFail when the round trip breaks under
// faults).
//
//lint:noalloc
func (r *runner) dispatch(a *access) {
	r.res.Messages.Dispatches++
	r.rm.Dispatches.Inc()
	r.emit("access.dispatch", r.clientActor, a.client, int64(a.srv), int64(a.idx))
	if r.commit != nil {
		r.commit.Add(a.srv, 1)
	}
	if r.local != nil {
		r.local[a.client].Add(a.srv, 1)
	}
	r.eng.After(r.cfg.ServiceNetDelay, a.onArrive)
}

// settle reverses dispatch's load-index commitments when the round trip
// concludes (completion or failure).
//
//lint:noalloc
func (r *runner) settle(a *access) {
	if r.commit != nil {
		r.commit.Add(a.srv, -1)
	}
	if r.local != nil {
		r.local[a.client].Add(a.srv, -1)
	}
}

// accessDone lands the response at the client and closes the access.
//
//lint:noalloc
func (r *runner) accessDone(a *access) {
	r.settle(a)
	r.completed++
	r.rm.Completions.Inc()
	r.rm.ResponseSeconds.Observe(r.eng.Now().Sub(a.start).Seconds())
	r.emit("access.complete", r.clientActor, a.client, int64(a.srv), int64(a.idx))
	if a.idx >= r.warmup {
		r.res.Response.Add(r.eng.Now().Sub(a.start).Seconds())
		if r.cfg.Policy.Kind == core.Poll {
			r.res.PollTime.Add(a.pollDur.Seconds())
		}
	}
	if r.cfg.Policy.Kind == core.Poll {
		r.rm.PollWaitSeconds.Observe(a.pollDur.Seconds())
	}
	r.recycle(a)
	r.finish()
}

// accessFailed lands a broken round trip at the client: quarantine the
// server and retry the whole server selection, up to
// faults.DefaultAccessRetries times.
//
//lint:noalloc
func (r *runner) accessFailed(a *access) {
	r.settle(a)
	r.ft.quarantine(a.client, a.srv)
	if a.attempt >= faults.DefaultAccessRetries {
		r.lost++
		r.emit("access.lost", r.clientActor, a.client, int64(a.srv), int64(a.idx))
		r.recycle(a)
		r.finish()
		return
	}
	r.res.Retries++
	r.rm.Retries.Inc()
	r.emit("access.retry", r.clientActor, a.client, int64(a.srv), int64(a.attempt))
	attempt := a.attempt
	a.attempt++
	r.eng.After(r.ft.backoff(attempt), a.onRetry)
}

// finish stops the engine once every access is accounted for.
//
//lint:noalloc
func (r *runner) finish() {
	if r.completed+r.lost == r.cfg.Accesses {
		r.eng.Stop()
	}
}
