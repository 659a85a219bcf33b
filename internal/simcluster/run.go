package simcluster

import (
	"strconv"
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
	reg *obs.Registry
	rm  *obs.RunMetrics
	tr  *obs.Trace

	clientActor []string
	serverActor []string

	srv []serverState
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
	// as committed work, matching the prototype's centralized manager
	// which increments on assignment. local is the per-client
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

	ft *clientFaults // nil unless the fault schedule is active

	freeAcc  []*access  // recycled access records
	freePoll []*pollCtx // recycled poll round contexts

	completed int
	lost      int
	warmup    int
}

// emit records one trace event; actors is clientActor or serverActor
// (indexed lazily so the nil-trace path never touches them).
//
//lint:noalloc
func (r *runner) emit(name string, actors []string, idx int, a, b int64) {
	if r.tr != nil {
		r.tr.Emit(r.eng.Now().Seconds(), name, actors[idx], a, b)
	}
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
		warmup:    int(float64(cfg.Accesses) * cfg.WarmupFrac),
	}

	// Observability. The catalog always exists (a private registry when
	// the caller supplied none) so instrumentation is branch-free; it
	// schedules no events and draws no randomness, keeping seeded runs
	// bit-identical with or without a caller registry.
	r.reg = cfg.Metrics
	if r.reg == nil {
		r.reg = obs.NewRegistry()
	}
	r.rm = obs.NewRunMetrics(r.reg)
	// Elastic runs can grow past Servers; every capacity below is sized
	// to the reachable maximum so growth reuses reserved space instead
	// of reallocating. Fixed-pool runs have maxPool == Servers.
	maxPool := cfg.maxPool()
	r.tr = cfg.Trace
	if r.tr != nil {
		r.clientActor = make([]string, cfg.Clients)
		for i := range r.clientActor {
			r.clientActor[i] = "client:" + strconv.Itoa(i)
		}
		r.serverActor = make([]string, maxPool)
		for i := range r.serverActor {
			r.serverActor[i] = "server:" + strconv.Itoa(i)
		}
	}

	r.srv = make([]serverState, cfg.Servers, maxPool)
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
		r.ft = newClientFaults(eng, cfg.Faults, cfg.Clients, maxPool)
		r.ft.onQuarantine = func(client, srv int) {
			r.rm.Quarantines.Inc()
			r.emit("client.quarantine", r.clientActor, client, int64(srv), 0)
		}
		for _, ev := range cfg.Faults.Sorted() {
			ev := ev
			if ev.Node < maxPool {
				eng.At(sim.Time(sim.FromSeconds(ev.At.Seconds())), func() { r.fault(ev) })
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
		eng.At(sim.Time(sim.FromSeconds(ev.At.Seconds())), func() { r.pool.Apply(ev) })
	}
	if as := membership.NewAutoscaler(cfg.Autoscaler); as != nil {
		interval := sim.FromSeconds(as.Config().Interval.Seconds())
		var tick func()
		tick = func() {
			// sim.Time counts nanoseconds from the start of the run, so
			// it converts directly to the autoscaler's elapsed time.
			r.pool.Autoscale(as, time.Duration(r.eng.Now()))
			r.eng.After(interval, tick)
		}
		eng.After(interval, tick)
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
				r.res.Messages.Broadcasts++
				load := r.srv[id].active
				eng.After(cfg.BroadcastDelay, func() {
					for _, tbl := range r.tables {
						tbl.Update(id, load)
						r.res.Messages.BroadcastDeliveries++
					}
				})
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
	r.emit("server."+ev.Kind.String(), r.serverActor, ev.Node, 0, 0)
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
	// the engine exits with them still frozen; they are lost too.
	res.Lost = int64(r.cfg.Accesses - r.completed)
	r.rm.Lost.Add(res.Lost)
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
