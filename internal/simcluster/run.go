package simcluster

import (
	"math/bits"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
	"finelb/internal/sim"
	"finelb/internal/stats"
	"finelb/internal/workload"
)

// runner is one simulated run's full state. Every run takes the same
// access machine (access.go) over the same server model (server.go);
// fault handling and elastic membership are hooks on it that do
// nothing when their schedule is inert, so an inert run takes exactly
// the paper model's RNG draws and events — the golden-seed harness
// (golden_test.go) pins this bit for bit.
type runner struct {
	cfg Config
	eng *sim.Engine
	res *Result
	reg *obs.Registry // the membership metrics and, at collect, the tally
	tally

	srv []serverState
	// load mirrors each server's load index for the poll observations
	// that read it: the active count, or -1 while the server is down or
	// paused and stays silent. setLoad keeps it in step with srv.
	load []int32
	// pool is the routable membership. Every run has one; a fixed pool
	// simply never churns.
	pool *membership.Pool

	policyRNG *stats.RNG
	jitterRNG *stats.RNG
	stream    *workload.Stream

	// Lazy arrival scheduling: arrivals reserve a sequence band up front
	// (sim.Engine.ReserveSeqs) and each arrival event schedules the next
	// one, so the pending heap holds the in-flight population instead of
	// the whole access trace, with tie-breaking bit-identical to
	// scheduling everything up front.
	arrivalBase uint64
	nextIdx     int

	// commit is the IDEAL oracle's committed-work index (nil for other
	// policies): accurate load indexes acquired free of cost (§2), seen
	// as committed work. The prototype's centralized manager keeps the
	// same index, incremented on assignment with ties to the lowest id,
	// so both substrates make the same pick. local is the per-client
	// outstanding-access index (LocalLeast only): the message-free
	// least-connections rule. reindex keeps both holding exactly the
	// servers that can take new work.
	commit *core.LoadIndex
	local  []*core.LoadIndex

	tables []*core.LoadTable
	rrs    []core.RoundRobinState

	// Poll scratch: pollIdent is the identity permutation PollSet
	// requires (restored after every call).
	pollIdent []int
	pollSwaps []int
	pollDst   []int
	// slotPool and respPool back the poll contexts' slot and response
	// slices (carve).
	slotPool []pollSlot
	respPool []core.PollResponse

	ft *clientFaults // nil unless the fault schedule is active

	accs  slab[access]  // in-flight accesses
	polls slab[pollCtx] // in-flight poll rounds
	// slotBits is the width of the slot in an observation event's
	// argument, which packs the poll round's id above it; srvBits is
	// the width of the server id in a completion event's argument,
	// which packs the server's generation above it.
	slotBits, srvBits int
	// on holds the event callbacks, bound once per run; each event's
	// argument names the record it concerns.
	on struct {
		arrival, arrive, done, fail, retry func(int) // access id
		service                            func(int) // server id and generation
		decide                             func(int) // poll round id
		observe                            func(int) // poll round id and slot
		deliver                            func(int) // packed broadcast
	}

	lost   int64
	warmup int
}

// newRunner validates cfg and builds the run: engine, RNG streams,
// server state, fault machinery, policy state, membership, and the
// first arrival. The construction order (and hence sequence-number and
// RNG-draw order) is part of the golden contract.
func newRunner(cfg Config) (*runner, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	// The run's fixed message delays get FIFO lanes beside the event
	// heap: requests and responses, and for poll runs the decisions and
	// observations. Firing order is unchanged (Engine.AddLane);
	// TestFixedDelaysRideLanes checks these are the delays scheduled.
	eng.AddLane(DefaultServiceNetDelay)
	if cfg.Policy.Kind == core.Poll {
		eng.AddLane(DefaultPollRTT)
		eng.AddLane(obsDelay(DefaultPollRTT))
	}
	master := stats.NewRNG(cfg.Seed)
	arrivalRNG := master.Split()
	policyRNG := master.Split()
	jitterRNG := master.Split()

	r := &runner{
		cfg: cfg,
		eng: eng,
		res: &Result{
			Config:   cfg,
			Response: stats.NewSummary(true),
			PollTime: stats.NewSummary(true),
		},
		policyRNG: policyRNG,
		jitterRNG: jitterRNG,
		warmup:    int(float64(cfg.Accesses) * warmupFrac),
	}
	// Each access past warmup leaves at most one sample; reserving them up
	// front keeps a long run from regrowing the sample slices.
	r.res.Response.Reserve(cfg.Accesses - r.warmup)
	if cfg.Policy.Kind == core.Poll {
		r.res.PollTime.Reserve(cfg.Accesses - r.warmup)
	}

	// Observability. The run tallies into plain fields and publishes the
	// catalog into its private registry at collect; instrumentation
	// schedules no events and draws no randomness, so it cannot perturb
	// a run.
	r.reg = obs.NewRegistry()
	r.tally = newTally()
	// Elastic runs can grow past Servers; every capacity below is sized
	// to the reachable maximum so growth reuses reserved space instead
	// of reallocating. Fixed-pool runs have maxPool == Servers.
	maxPool := cfg.maxPool()
	r.srv = make([]serverState, cfg.Servers, maxPool)
	r.load = make([]int32, cfg.Servers, maxPool)
	for i := range r.srv {
		s := &r.srv[i]
		s.speed = r.speedFor(i)
		if cfg.RecordQueueSeries {
			s.series = &QSeries{}
		}
		r.record(i)
	}

	// Fault machinery, allocated only for an active schedule: an inert
	// one pays nothing and draws nothing extra.
	if cfg.Faults.Active() {
		r.ft = newClientFaults(cfg.Faults, cfg.Clients, maxPool)
		for _, ev := range cfg.Faults.Sorted() {
			ev := ev
			if ev.Node < maxPool {
				eng.At(sim.Time(sim.FromSeconds(ev.At.Seconds())), func(int) { r.fault(ev) }, 0)
			}
		}
	}

	// Per-client policy state.
	r.rrs = make([]core.RoundRobinState, cfg.Clients)
	if cfg.Policy.Kind == core.Broadcast {
		r.tables = make([]*core.LoadTable, cfg.Clients)
		for i := range r.tables {
			r.tables[i] = core.NewLoadTable(cfg.Servers)
		}
	}
	if cfg.Policy.Kind == core.LocalLeast {
		r.local = make([]*core.LoadIndex, cfg.Clients)
		for i := range r.local {
			r.local[i] = core.NewLoadIndexCap(cfg.Servers, maxPool)
		}
	}
	if cfg.Policy.Kind == core.Ideal {
		r.commit = core.NewLoadIndexCap(cfg.Servers, maxPool)
	}
	r.pollIdent = core.Identity(maxPool)
	r.pollSwaps = make([]int, maxPool)
	r.pollDst = make([]int, maxPool)
	r.slotBits = bits.Len(uint(cfg.Policy.PollSize))
	r.srvBits = bits.Len(uint(maxPool))
	r.on.arrival = r.arrival
	r.on.arrive = r.serverArrive
	r.on.service = r.serviceDone
	r.on.done = r.accessDone
	r.on.fail = r.accessFailed
	r.on.retry = r.handle
	r.on.decide = r.decide
	r.on.observe = r.observe
	r.on.deliver = r.deliver

	// Membership. Its metrics register only for elastic runs, so
	// fixed-pool snapshots stay bit-identical; schedule events and the
	// autoscaler loop play out on the simulated clock.
	var mm *obs.MembershipMetrics
	if cfg.elastic() {
		mm = obs.NewMembershipMetrics(r.reg)
	}
	r.pool = membership.NewPool(cfg.Servers, maxPool, r, mm)
	for _, ev := range cfg.Membership.Sorted() {
		ev := ev
		eng.At(sim.Time(sim.FromSeconds(ev.At.Seconds())), func(int) { r.pool.Apply(ev) }, 0)
	}
	if as := membership.NewAutoscaler(cfg.Autoscaler); as != nil {
		interval := sim.FromSeconds(as.Config().Interval.Seconds())
		var tick func(int)
		tick = func(int) {
			// sim.Time counts nanoseconds from the start of the run, so
			// it converts directly to the autoscaler's elapsed time.
			r.pool.Autoscale(as, time.Duration(r.eng.Now()))
			// With no other event pending only ticks could fire again
			// (autoscaler actions schedule none): the accesses still out
			// are stranded on a server paused for good, so let the run
			// end instead of ticking forever.
			if r.eng.Pending() == 0 {
				return
			}
			r.eng.After(interval, tick, 0)
		}
		eng.After(interval, tick, 0)
	}

	// Broadcast agents.
	if cfg.Policy.Kind == core.Broadcast {
		mean := sim.FromSeconds(cfg.Policy.BroadcastInterval.Seconds())
		for id := range r.srv {
			id := id
			interval := func() sim.Duration {
				if cfg.Policy.BroadcastFixed {
					return mean
				}
				// Jittered uniformly over [0.5, 1.5] x mean (§2.2).
				f := 0.5 + jitterRNG.Float64()
				return sim.Duration(float64(mean) * f)
			}
			eng.Every(interval, func() {
				r.msg.Broadcasts++
				eng.After(DefaultBroadcastDelay, r.on.deliver, r.srv[id].active*len(r.srv)+id)
			})
		}
	}

	// Arrivals: reserve the whole trace's sequence band, then chain
	// arrival events lazily. Accesses are assigned to clients
	// round-robin, mirroring the paper's multiple client nodes sharing
	// the workload.
	r.stream = cfg.Workload.Stream(arrivalRNG.Uint64())
	r.arrivalBase = eng.ReserveSeqs(uint64(cfg.Accesses))
	r.scheduleArrival()
	return r, nil
}

// deliver lands one load announcement in every client's load table.
// The event carries the announcement itself, load*len(r.srv) + server
// (broadcast runs have a fixed pool), so it needs no record.
//
//lint:noalloc
func (r *runner) deliver(arg int) {
	id, load := arg%len(r.srv), arg/len(r.srv)
	for _, tbl := range r.tables {
		tbl.Update(id, load)
		r.msg.BroadcastDeliveries++
	}
}

// fault applies one node event of the fault schedule. An id past the
// grown pool grows it first, so a crashed id the membership schedule
// joins later stays dead.
func (r *runner) fault(ev faults.NodeEvent) {
	r.growTo(ev.Node + 1)
	switch ev.Kind {
	case faults.Crash:
		r.crash(ev.Node)
	case faults.Pause:
		r.pause(ev.Node)
	case faults.Resume:
		r.resume(ev.Node)
	}
}

// collect assembles the Result after the engine has drained.
func (r *runner) collect() *Result {
	end := r.eng.Now().Seconds()
	res := r.res
	res.SimDuration = end
	res.EventsFired = r.eng.Fired()
	// len(r.srv) == cfg.Servers on fixed-pool runs; elastic runs report
	// every server the run ever grew (joined servers count their
	// pre-join span as idle).
	res.ServerUtilization = make([]float64, len(r.srv))
	var qsum float64
	for i := range r.srv {
		s := &r.srv[i]
		if end > 0 {
			res.ServerUtilization[i] = s.busyTime.Seconds() / end
		}
		qsum += s.qavg.Finish(end)
		if r.cfg.RecordQueueSeries {
			res.QueueSeries = append(res.QueueSeries, s.series)
		}
	}
	res.MeanQueueLength = qsum / float64(len(r.srv))
	res.Joins, res.Drains, res.Leaves, res.FinalPool, res.PeakPool = r.pool.Stats()
	// Accesses stranded on a paused-forever server drain no events, so
	// the engine exits with them still frozen (an autoscaler stops
	// ticking once its tick is the last event); they are lost too.
	res.Lost = int64(r.cfg.Accesses) - r.completions
	res.Messages, res.Retries = r.msg, r.retries
	r.tally.publish(obs.NewRunMetrics(r.reg), res.Lost)
	res.Metrics = r.reg.Snapshot()
	return res
}

// Run executes one simulated experiment and returns its measurements.
func Run(cfg Config) (*Result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	r.eng.Run()
	return r.collect(), nil
}
