package simcluster

import (
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/sim"
)

// access is one in-flight service access. Records live in the
// runner's slab and every event about one carries its id, so the
// runner's callbacks are bound once for the whole run.
type access struct {
	idx     int
	client  int
	attempt int
	srv     int          // chosen server of the current dispatch
	start   sim.Time     // arrival time; response time is measured from it
	service sim.Duration // service demand
	pollDur sim.Duration // polling duration of the deciding round
}

// slabBits sizes a slab block: 1<<slabBits records.
const slabBits = 8

// slab holds records in fixed-size blocks addressed by id. A record's
// address never changes, so a pointer taken from at stays valid while
// other records are minted; a freed id is reused before a new one is
// minted, so the slab grows only with the in-flight high-water mark.
type slab[T any] struct {
	blocks [][]T
	free   []int
	n      int // ids minted
}

// at returns record id.
//
//lint:noalloc
func (s *slab[T]) at(id int) *T {
	return &s.blocks[id>>slabBits][id&(1<<slabBits-1)]
}

// get takes a free id, or mints one. A reused record keeps its old
// contents; the caller sets every field it reads.
//
//lint:noalloc (the block below is the one sanctioned mint)
func (s *slab[T]) get() int {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id
	}
	if s.n == len(s.blocks)<<slabBits {
		//lint:allow noalloc one block per 1<<slabBits records of in-flight high-water mark, then reused forever
		s.blocks = append(s.blocks, make([]T, 1<<slabBits))
	}
	s.n++
	return s.n - 1
}

// put frees id for reuse.
//
//lint:noalloc
func (s *slab[T]) put(id int) {
	s.free = append(s.free, id)
}

// scheduleArrival draws the next access from the workload stream and
// schedules its arrival event in the reserved sequence band.
//
//lint:noalloc
func (r *runner) scheduleArrival() {
	i := r.nextIdx
	r.nextIdx++
	acc := r.stream.Next()
	id := r.accs.get()
	a := r.accs.at(id)
	a.idx = i
	a.client = i % r.cfg.Clients
	a.attempt = 0
	a.pollDur = 0
	a.service = sim.FromSeconds(acc.Service)
	r.eng.AtSeq(sim.Time(sim.FromSeconds(acc.Arrival)), r.arrivalBase+uint64(i), r.on.arrival, id)
}

// arrival is access id's arrival event: chain the next arrival (the
// workload stream is monotone in arrival time), then run the policy
// decision for this one.
//
//lint:noalloc
func (r *runner) arrival(id int) {
	if r.nextIdx < r.cfg.Accesses {
		r.scheduleArrival()
	}
	r.accs.at(id).start = r.eng.Now()
	r.handle(id)
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
	return faults.Live(r.ft.det[client], r.ft.fresh, r.pool.Members(), serverID, r.now())
}

// serverID is the simulator's member-to-server-id map: members are ids.
//
//lint:noalloc
func serverID(srv int) int { return srv }

// detector returns the client's failure detector: nil, the inert
// detector, unless the fault schedule is active.
//
//lint:noalloc
func (r *runner) detector(client int) *faults.Detector {
	if r.ft == nil {
		return nil
	}
	return r.ft.det[client]
}

// now is the simulated clock as the offset faults.Detector takes.
//
//lint:noalloc
func (r *runner) now() time.Duration { return time.Duration(r.eng.Now()) }

// quarantined records client's decision to quarantine srv.
//
//lint:noalloc
func (r *runner) quarantined(client, srv int) {
	r.rm.Quarantines.Inc()
	r.emit("client.quarantine", r.clientActor, client, int64(srv), 0)
}

// anyOf picks a uniformly random candidate.
//
//lint:noalloc
func (r *runner) anyOf(cands []int) int {
	return cands[r.policyRNG.Intn(len(cands))]
}

// handle runs the policy decision for access id (on arrival, and again
// after a broken round trip) over the client's current candidate set.
// With no faults and a fixed pool the candidates are every server, so
// each branch takes the paper model's draws exactly.
//
//lint:noalloc
func (r *runner) handle(id int) {
	a := r.accs.at(id)
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
			r.pollRound(id, 0, cands)
			return
		}
		// Every candidate quarantined: skip the pointless poll.
		a.srv = r.anyOf(cands)
	}
	r.dispatch(id)
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

// pollCtx is one poll round's state, kept in the runner's slab like
// access records; its slices are reused across the rounds that take
// its id.
type pollCtx struct {
	acc       int      // the access being decided
	round     int      // 0, then one more per silent-round retry
	start     sim.Time // when the inquiries went out
	deadline  sim.Time // poll timeout, capped by the discard threshold
	polled    []int
	respAt    []sim.Time
	answered  []bool
	responses []core.PollResponse
}

// pollRound sends one round of load inquiries for access id to a
// random subset of the candidates. Each inquiry reads the server's load
// index halfway through its round trip (one observation event per slot
// that can answer in time, its argument packing the round and the
// slot), and one decide event closes the round when the last answer is
// due — or at the deadline, if some slot is dropped or late.
//
//lint:noalloc
func (r *runner) pollRound(id, round int, cands []int) {
	cfg := &r.cfg
	client := r.accs.at(id).client
	set := core.PollSet(r.policyRNG, len(cands), cfg.Policy.PollSize, r.pollDst, r.pollIdent, r.pollSwaps)
	cid := r.polls.get()
	c := r.polls.at(cid)
	c.acc, c.round, c.start = id, round, r.eng.Now()
	c.polled = c.polled[:0]
	for _, i := range set {
		c.polled = append(c.polled, cands[i])
	}
	r.res.Messages.PollRequests += int64(len(c.polled))
	r.rm.PollRequests.Add(int64(len(c.polled)))

	c.deadline = c.start.Add(sim.Duration(faults.DefaultPollTimeout))
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
		drop, extra := r.ft.pollFault(client, srv)
		if drop {
			r.rm.InquiriesDropped.Inc() // lost datagram: silence until the deadline
			decideAt = c.deadline
			continue
		}
		rtt := DefaultPollRTT + extra
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
		r.eng.At(c.start.Add(obsDelay(rtt)), r.on.observe, cid<<r.slotBits|i)
	}
	r.eng.At(decideAt, r.on.decide, cid)
}

// obsDelay is when a poll inquiry over a round trip rtt reaches its
// server and reads the load: half the round trip before the answer
// lands back at the client. newRunner declares a lane for it.
//
//lint:noalloc
func obsDelay(rtt sim.Duration) sim.Duration { return rtt - rtt/2 }

// observe is one poll slot's observation event; arg packs the round's
// id and the slot. The inquiry reaches the server and reads its load
// index; the answer lands back at the client at respAt[i], within the
// deadline by construction. A crashed or stalled server stays silent.
//
//lint:noalloc
func (r *runner) observe(arg int) {
	c, i := r.polls.at(arg>>r.slotBits), arg&(1<<r.slotBits-1)
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

// decide closes poll round cid and dispatches. A slot that fell silent
// at observation moves the decision to the deadline; a round nobody
// answered retries after a backoff when fault handling is on, and after
// faults.DefaultPollRetries silent rounds falls back to a random
// candidate.
//
//lint:noalloc
func (r *runner) decide(cid int) {
	c := r.polls.at(cid)
	id := c.acc
	a := r.accs.at(id)
	now := r.eng.Now()
	if len(c.responses) < len(c.polled) && now < c.deadline {
		r.eng.At(c.deadline, r.on.decide, cid)
		return
	}
	missing := int64(len(c.polled) - len(c.responses))
	r.res.Messages.PollsDiscarded += missing
	r.rm.PollDiscards.Add(missing)
	det, at := r.detector(a.client), r.now()
	for i, srv := range c.polled {
		if c.answered[i] {
			det.Answered(srv)
		} else {
			if det.Silent(srv, at) {
				r.quarantined(a.client, srv)
			}
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
		r.eng.After(r.ft.backoff(c.round), r.on.repoll, cid)
		return
	default:
		// Every round was silence: random fallback among the servers
		// still believed live.
		cands, _ := r.candidates(a.client)
		a.srv = r.anyOf(cands)
	}
	r.polls.put(cid)
	r.dispatch(id)
}

// repoll is silent round cid's retry, after its backoff: poll the fresh
// candidates again, or go random if the client has quarantined them all.
//
//lint:noalloc
func (r *runner) repoll(cid int) {
	c := r.polls.at(cid)
	id, round := c.acc, c.round+1
	r.polls.put(cid)
	a := r.accs.at(id)
	cands, fresh := r.candidates(a.client)
	if fresh {
		r.pollRound(id, round, cands)
		return
	}
	a.srv = r.anyOf(cands)
	a.pollDur = r.eng.Now().Sub(a.start)
	r.dispatch(id)
}

// dispatch sends access id to its chosen server; the response lands
// back at the client via accessDone (or accessFailed when the round trip
// breaks under faults).
//
//lint:noalloc
func (r *runner) dispatch(id int) {
	a := r.accs.at(id)
	r.res.Messages.Dispatches++
	r.rm.Dispatches.Inc()
	r.emit("access.dispatch", r.clientActor, a.client, int64(a.srv), int64(a.idx))
	if r.commit != nil {
		r.commit.Add(a.srv, 1)
	}
	if r.local != nil {
		r.local[a.client].Add(a.srv, 1)
	}
	r.eng.After(DefaultServiceNetDelay, r.on.arrive, id)
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

// accessDone lands access id's response at the client and closes the
// access.
//
//lint:noalloc
func (r *runner) accessDone(id int) {
	a := r.accs.at(id)
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
	r.accs.put(id)
	r.finish()
}

// accessFailed lands access id's broken round trip at the client:
// quarantine the server and retry the whole server selection, up to
// faults.DefaultAccessRetries times.
//
//lint:noalloc
func (r *runner) accessFailed(id int) {
	a := r.accs.at(id)
	r.settle(a)
	if r.detector(a.client).Failed(a.srv, r.now()) {
		r.quarantined(a.client, a.srv)
	}
	if a.attempt >= faults.DefaultAccessRetries {
		r.lost++
		r.emit("access.lost", r.clientActor, a.client, int64(a.srv), int64(a.idx))
		r.accs.put(id)
		r.finish()
		return
	}
	r.res.Retries++
	r.rm.Retries.Inc()
	r.emit("access.retry", r.clientActor, a.client, int64(a.srv), int64(a.attempt))
	attempt := a.attempt
	a.attempt++
	r.eng.After(r.ft.backoff(attempt), r.on.retry, id)
}

// finish stops the engine once every access is accounted for.
//
//lint:noalloc
func (r *runner) finish() {
	if r.completed+r.lost == r.cfg.Accesses {
		r.eng.Stop()
	}
}
