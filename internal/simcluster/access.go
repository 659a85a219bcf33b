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
	m       faults.Access // the access's poll rounds and attempts
	srv     int           // chosen server of the current dispatch
	start   sim.Time      // arrival time; response time is measured from it
	service sim.Duration  // service demand
	pollDur sim.Duration  // polling duration of the deciding round
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
	a.m = faults.Access{}
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

// anyOf picks a uniformly random candidate.
//
//lint:noalloc
func (r *runner) anyOf(cands []int) int {
	return cands[r.policyRNG.Intn(len(cands))]
}

// handle runs the policy decision for access id (on arrival, after a
// broken round trip, and after a silent poll round) over the client's
// current candidate set.
// With no faults and a fixed pool the candidates are every server, so
// each branch takes the paper model's draws exactly.
//
//lint:noalloc
func (r *runner) handle(id int) {
	a := r.accs.at(id)
	cands, fresh := r.candidates(a.client)
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
		if a.m.Poll(fresh) == faults.Poll {
			r.pollRound(id, cands)
			return
		}
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
// access records; its slices are carved once, with room for a full
// round, and reused by every round that takes its id.
type pollCtx struct {
	acc       int      // the access being decided
	start     sim.Time // when the inquiries went out
	deadline  sim.Time // poll timeout, capped by the discard threshold
	slots     []pollSlot
	responses []core.PollResponse // the answers, in the order they landed
}

// pollSlot is one inquiry of a poll round.
type pollSlot struct {
	srv      int      // the polled server
	respAt   sim.Time // when its answer lands at the client
	answered bool
}

// carve returns an empty slice with room for n records, cut from
// *pool; an exhausted pool is refilled with room for a slab block's
// worth of such slices, so the poll contexts of one block share a
// backing array instead of each growing its own.
//
//lint:noalloc (the refill below is the one sanctioned mint)
func carve[T any](pool *[]T, n int) []T {
	if len(*pool) < n {
		//lint:allow noalloc one backing array per 1<<slabBits poll contexts minted
		*pool = make([]T, n<<slabBits)
	}
	s := (*pool)[:0:n]
	*pool = (*pool)[n:]
	return s
}

// pollRound sends one round of load inquiries for access id to a
// random subset of the candidates. Each inquiry reads the server's load
// index halfway through its round trip (one observation event per slot
// that can answer in time, its argument packing the round and the
// slot), and one decide event closes the round when the last answer is
// due — or at the deadline, if some slot is dropped or late.
//
//lint:noalloc
func (r *runner) pollRound(id int, cands []int) {
	cfg := &r.cfg
	client := r.accs.at(id).client
	set := core.PollSet(r.policyRNG, len(cands), cfg.Policy.PollSize, r.pollDst, r.pollIdent, r.pollSwaps)
	cid := r.polls.get()
	c := r.polls.at(cid)
	c.acc, c.start = id, r.eng.Now()
	if c.slots == nil {
		c.slots = carve(&r.slotPool, cfg.Policy.PollSize)
		c.responses = carve(&r.respPool, cfg.Policy.PollSize)
	}
	c.slots = c.slots[:0]
	c.responses = c.responses[:0]
	for _, i := range set {
		c.slots = append(c.slots, pollSlot{srv: cands[i]})
	}
	r.msg.PollRequests += int64(len(c.slots))

	c.deadline = c.start.Add(sim.Duration(faults.DefaultPollTimeout))
	if d := cfg.Policy.DiscardAfter; d > 0 {
		c.deadline = min(c.deadline, c.start.Add(sim.FromSeconds(d.Seconds())))
	}
	decideAt := c.start
	for i := range c.slots {
		sl := &c.slots[i]
		drop, extra := r.ft.pollFault(client, sl.srv)
		if drop {
			r.inquiriesDropped++ // lost datagram: silence until the deadline
			decideAt = c.deadline
			continue
		}
		rtt := DefaultPollRTT + extra
		if cfg.PollJitter != nil {
			rtt += sim.FromSeconds(cfg.PollJitter.Sample(r.jitterRNG))
		}
		sl.respAt = c.start.Add(rtt)
		if sl.respAt > c.deadline {
			// A live server's answer lands after the client has decided
			// without it.
			if r.load[sl.srv] >= 0 {
				r.pollLate++
				r.inquiriesServed++
				r.pollRTT.observe(rtt.Seconds())
			}
			decideAt = c.deadline
			continue
		}
		decideAt = max(decideAt, sl.respAt)
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
// index from the dense load slice; the answer lands back at the client
// at the slot's respAt, within the deadline by construction. A crashed
// or stalled server stays silent.
//
//lint:noalloc
func (r *runner) observe(arg int) {
	c := r.polls.at(arg >> r.slotBits)
	sl := &c.slots[arg&(1<<r.slotBits-1)]
	load := r.load[sl.srv]
	if load < 0 {
		r.inquiriesDropped++
		return
	}
	sl.answered = true
	c.responses = append(c.responses, core.PollResponse{Server: sl.srv, Load: int(load)})
	r.msg.PollResponses++
	r.inquiriesServed++
	r.pollRTT.observe(sl.respAt.Sub(c.start).Seconds())
}

// decide closes poll round cid: a slot that fell silent at observation
// moves the decision to the deadline, and then the access's
// faults.Access picks, or re-polls after a backoff.
//
//lint:noalloc
func (r *runner) decide(cid int) {
	c := r.polls.at(cid)
	id := c.acc
	a := r.accs.at(id)
	now := r.eng.Now()
	if len(c.responses) < len(c.slots) && now < c.deadline {
		r.eng.At(c.deadline, r.on.decide, cid)
		return
	}
	r.msg.PollsDiscarded += int64(len(c.slots) - len(c.responses))
	det, at := r.detector(a.client), r.now()
	for _, sl := range c.slots {
		if det.Heard(sl.srv, sl.answered, at) {
			r.quarantines++
		}
	}
	a.pollDur = now.Sub(a.start)
	// A silent round is re-polled only under a fault schedule; without
	// one, every answer was discarded at the deadline and a polled
	// server is picked at once. The prototype re-polls either way: the
	// substrates' one known divergence on a silent round (DESIGN.md §5).
	next := a.m.Round(r.policyRNG, c.responses, len(c.slots), r.ft != nil)
	switch next.Step {
	case faults.PickAnswered:
		a.srv = next.Pick
	case faults.PickPolled:
		a.srv = c.slots[next.Pick].srv
	case faults.PickAny:
		cands, _ := r.candidates(a.client)
		a.srv = r.anyOf(cands)
	case faults.Repoll:
		// handle polls again after the wait; should it pick without
		// polling, the access polled until then.
		wait := sim.Duration(next.Wait(r.ft.rng))
		a.pollDur += wait
		r.retries++
		r.polls.put(cid)
		r.eng.After(wait, r.on.retry, id)
		return
	}
	r.polls.put(cid)
	r.dispatch(id)
}

// dispatch sends access id to its chosen server; the response lands
// back at the client via accessDone (or accessFailed when the round trip
// breaks under faults).
//
//lint:noalloc
func (r *runner) dispatch(id int) {
	a := r.accs.at(id)
	r.msg.Dispatches++
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
	r.completions++
	resp := r.eng.Now().Sub(a.start).Seconds()
	r.response.observe(resp)
	if a.idx >= r.warmup {
		r.res.Response.Add(resp)
		if r.cfg.Policy.Kind == core.Poll {
			r.res.PollTime.Add(a.pollDur.Seconds())
		}
	}
	if r.cfg.Policy.Kind == core.Poll {
		r.pollWait.observe(a.pollDur.Seconds())
	}
	r.accs.put(id)
	r.finish()
}

// retryIdeal is the simulator's input to faults.Access.Failed: a failed
// IDEAL access is retried like any other. The prototype never retries
// one, since its manager accounts each access once: the substrates'
// other known divergence (DESIGN.md §5).
const retryIdeal = true

// accessFailed lands access id's broken round trip at the client:
// quarantine the server, then retry the whole server selection after
// a backoff or count the access lost, as its faults.Access says.
//
//lint:noalloc
func (r *runner) accessFailed(id int) {
	a := r.accs.at(id)
	r.settle(a)
	if r.detector(a.client).Failed(a.srv, r.now()) {
		r.quarantines++
	}
	next := a.m.Failed(r.cfg.Policy.Kind == core.Ideal, retryIdeal)
	if next.Step == faults.GiveUp {
		r.lost++
		r.accs.put(id)
		r.finish()
		return
	}
	r.retries++
	a.pollDur = 0
	r.eng.After(sim.Duration(next.Wait(r.ft.rng)), r.on.retry, id)
}

// finish stops the engine once every access is accounted for. An
// access counted twice would carry the tally past the total, where the
// run could never end, so that panics.
//
//lint:noalloc
func (r *runner) finish() {
	switch n := r.completions + r.lost; {
	case n == int64(r.cfg.Accesses):
		r.eng.Stop()
	case n > int64(r.cfg.Accesses):
		panic("simcluster: more accesses completed or lost than were generated")
	}
}
