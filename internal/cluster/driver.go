package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
	"finelb/internal/stats"
	"finelb/internal/transport"
	"finelb/internal/workload"
)

// ExperimentConfig describes one prototype measurement run (§4):
// a cluster of server nodes and client nodes inside this process,
// exercised open-loop by a workload's arrival schedule.
type ExperimentConfig struct {
	Servers int
	Clients int // default 6, as in the paper's experiments
	// Workload must already be scaled (workload.Workload.ScaledTo) to
	// the target per-server load for Servers servers.
	Workload workload.Workload
	Policy   core.Policy

	// Transport is the messaging substrate every node, client, and
	// manager of the run uses (default transport.Net, real loopback
	// sockets). Pass a fresh transport.Mem fabric for a deterministic
	// in-memory run.
	Transport transport.Transport

	// Accesses is the number of accesses to issue (default 20000).
	Accesses int

	// SlowProb is every node's §3.2 contention-model probability (see
	// NodeConfig.SlowProb; negative disables the slow path).
	SlowProb float64

	// Faults, when non-nil, injects the schedule into the run: node
	// events (crash/pause/resume) are replayed on the wall clock from
	// the first arrival, and link faults are wired into every client.
	// See internal/faults.
	Faults *faults.Schedule

	// Membership, when active, replays the elastic-membership schedule
	// (internal/membership) on the wall clock from the first arrival,
	// exactly like Faults: joins start (or re-publish) real nodes,
	// drains withdraw them from the directory while they keep serving,
	// leaves retire them. Membership and Faults cannot combine in one
	// run — planned churn and failure injection answer different
	// questions, and mixing them makes both replays ambiguous.
	Membership *membership.Schedule
	// Autoscaler, when active, runs the load-threshold autoscaler on the
	// wall clock: the routable pool's mean load index is sampled every
	// Interval and the policy's deltas are applied as join/drain/leave
	// transitions. Combines freely with Membership.
	Autoscaler *membership.AutoscalerConfig
	// DirTTL overrides the directory's soft-state TTL (default
	// DefaultTTL); fault runs use a short TTL so crashed nodes expire
	// quickly. Nodes republish at DirTTL/4.
	DirTTL time.Duration

	// QuarantineAfter is passed through to every client (see
	// ClientConfig.QuarantineAfter); zero keeps the client default and
	// negative disables quarantine, which deterministic runs use
	// because quarantine expiry is wall-clock driven.
	QuarantineAfter int

	// Metrics, when non-nil, is the registry the run records the shared
	// obs.RunMetrics catalog into; nil records into a private registry.
	// Either way ExperimentResult.Metrics carries the end-of-run
	// snapshot, aggregated across every node and client of the run.
	Metrics *obs.Registry

	Seed uint64
}

const (
	// warmupFrac is the leading fraction of a run's accesses excluded
	// from the Response, PollTime and PollRTT summaries.
	warmupFrac = 0.1
	// serviceName is the service every node of a run publishes.
	serviceName = "translate"
)

// ExperimentResult aggregates the measurements of one run. Counts —
// accesses lost, retries, poll inquiries sent, answered, discarded and
// late — live only in Metrics, which every node and client of the run
// increments at the protocol points where they happen.
type ExperimentResult struct {
	Config ExperimentConfig

	// Response summarizes access response times in seconds, measured
	// from each access's scheduled arrival instant (so queueing from
	// client-side lateness counts, as in an open-loop load generator),
	// over post-warmup successful accesses.
	Response *stats.Summary
	// PollTime summarizes per-access time spent acquiring load
	// information, post-warmup.
	PollTime *stats.Summary
	// PollRTT summarizes individual inquiry round trips (profile P1).
	PollRTT *stats.Summary

	PerServer []int64 // accesses served by each node (by index)

	// Elastic membership (zero churn on fixed-pool runs, where
	// FinalPool = PeakPool = Servers): pool transitions applied and the
	// routable pool size at the end of the run and at its peak.
	Joins, Drains, Leaves int64
	FinalPool, PeakPool   int

	// Metrics is the end-of-run snapshot of the obs.RunMetrics catalog,
	// taken after the last access settles and before teardown.
	Metrics *obs.Snapshot
}

// MeanResponse returns the run's mean response time in seconds.
func (r *ExperimentResult) MeanResponse() float64 { return r.Response.Mean() }

// Cluster is a running prototype cluster: directory, nodes, clients,
// and (for Ideal) the centralized manager. Use StartCluster for
// exploratory programs and examples; RunExperiment builds one
// internally.
type Cluster struct {
	Dir     *Directory
	Nodes   []*Node
	Clients []*Client
	Manager *IdealManager

	// Registry is the run's metrics registry (the caller's
	// ExperimentConfig.Metrics, or a private one) and Metrics the shared
	// catalog every node and client of this cluster records into.
	Registry *obs.Registry
	Metrics  *obs.RunMetrics

	// Elastic membership (elastic.go). newNode is the template Join
	// starts mid-run nodes from; members decides every transition.
	newNode func(id int) NodeConfig
	//lint:guards members
	churnMu sync.Mutex
	members *membership.Pool
}

// StartCluster boots servers and clients per cfg and waits until every
// client sees all servers in its mapping table.
func StartCluster(cfg ExperimentConfig) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	if err := membership.Check(cfg.Servers, cfg.Membership, cfg.Autoscaler); err != nil {
		return nil, err
	}
	if cfg.elastic() && cfg.Faults.Active() {
		return nil, fmt.Errorf("cluster: Membership and Faults cannot combine in one run")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cl := &Cluster{
		Dir:      NewDirectory(cfg.DirTTL),
		Registry: reg,
		Metrics:  obs.NewRunMetrics(reg),
	}
	fail := func(err error) (*Cluster, error) {
		cl.Close()
		return nil, err
	}

	if cfg.Policy.Kind == core.Ideal {
		m, err := StartIdealManager(cfg.Transport, cfg.Servers)
		if err != nil {
			return fail(err)
		}
		cl.Manager = m
	}

	// The same template serves initial nodes and mid-run joins, so an
	// elastic pool's newcomers are indistinguishable from the seed set.
	cl.newNode = func(id int) NodeConfig {
		return NodeConfig{
			ID:              id,
			Service:         serviceName,
			Transport:       cfg.Transport,
			Directory:       cl.Dir,
			PublishInterval: cfg.DirTTL / 4, // zero keeps the node default
			SlowProb:        cfg.SlowProb,
			Metrics:         cl.Metrics,
			Seed:            cfg.Seed + uint64(id)*7919,
		}
	}
	for i := 0; i < cfg.Servers; i++ {
		n, err := StartNode(cl.newNode(i))
		if err != nil {
			return fail(err)
		}
		cl.Nodes = append(cl.Nodes, n)
	}
	// Membership metrics register only for elastic runs, so fixed-pool
	// snapshot digests stay bit-identical.
	var mm *obs.MembershipMetrics
	if cfg.elastic() {
		mm = obs.NewMembershipMetrics(reg)
	}
	cl.churnMu.Lock()
	cl.members = membership.NewPool(cfg.Servers, cfg.maxPool(), clusterNodes{cl}, mm)
	cl.churnMu.Unlock()

	mgrAddr := ""
	if cl.Manager != nil {
		mgrAddr = cl.Manager.Addr()
	}
	for i := 0; i < cfg.Clients; i++ {
		ccfg := ClientConfig{
			ID:              i,
			Directory:       cl.Dir,
			Service:         serviceName,
			Policy:          cfg.Policy,
			Transport:       cfg.Transport,
			ManagerAddr:     mgrAddr,
			Faults:          cfg.Faults,
			QuarantineAfter: cfg.QuarantineAfter,
			Metrics:         cl.Metrics,
			Seed:            cfg.Seed + 104729 + uint64(i)*31,
		}
		if cfg.DirTTL > 0 {
			// Track the faster soft-state churn of a short-TTL directory.
			ccfg.RefreshInterval = cfg.DirTTL / 4
			ccfg.QuarantineFor = cfg.DirTTL
		}
		c, err := NewClient(ccfg)
		if err != nil {
			return fail(err)
		}
		cl.Clients = append(cl.Clients, c)
	}

	// Wait (briefly) until mapping tables are complete.
	deadline := time.Now().Add(2 * time.Second)
	for _, c := range cl.Clients {
		for len(c.Endpoints()) < cfg.Servers {
			if time.Now().After(deadline) {
				return fail(fmt.Errorf("cluster: mapping tables incomplete after 2s"))
			}
			time.Sleep(time.Millisecond)
			c.Refresh()
		}
	}
	return cl, nil
}

// Close shuts everything down. Elastic runs can leave nil placeholders
// in Nodes for ids the run never joined.
func (cl *Cluster) Close() {
	for _, c := range cl.Clients {
		c.Close()
	}
	for _, n := range cl.Nodes {
		if n != nil {
			n.Close()
		}
	}
	if cl.Manager != nil {
		cl.Manager.Close()
	}
}

func (cfg ExperimentConfig) withDefaults() ExperimentConfig {
	if cfg.Transport == nil {
		cfg.Transport = transport.Default()
	}
	if cfg.Clients == 0 {
		cfg.Clients = 6
	}
	if cfg.Accesses == 0 {
		cfg.Accesses = 20000
	}
	return cfg
}

// elastic reports whether the run's server pool can change mid-run.
func (cfg ExperimentConfig) elastic() bool {
	return cfg.Membership.Active() || cfg.Autoscaler.Active()
}

// maxPool returns the largest node id space the run can touch.
func (cfg ExperimentConfig) maxPool() int {
	return membership.MaxPool(cfg.Servers, cfg.Membership, cfg.Autoscaler)
}

// RunExperiment boots a cluster, replays the workload open-loop, and
// returns the measurements.
func RunExperiment(cfg ExperimentConfig) (*ExperimentResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("cluster: Servers = %d", cfg.Servers)
	}
	if cfg.Workload.Arrival == nil || cfg.Workload.Service == nil {
		return nil, fmt.Errorf("cluster: incomplete workload")
	}

	cl, err := StartCluster(cfg)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	res := &ExperimentResult{
		Config:   cfg,
		Response: stats.NewSummary(true),
		PollTime: stats.NewSummary(true),
		PollRTT:  stats.NewSummary(true),
	}
	res.PerServer = make([]int64, cfg.maxPool())

	// Pre-generate the access schedule so generation cost is off the
	// timed path.
	trace := cfg.Workload.Generate(cfg.Accesses, cfg.Seed^0xfeedface)
	warmup := int(float64(cfg.Accesses) * warmupFrac)

	// Collect garbage left over from setup (or from a preceding run in
	// the same process) so GC pauses don't pollute the timed phase —
	// latency experiments on a single-core box are sensitive to this.
	runtime.GC()

	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond) // settle time before first arrival

	stopFaults := replay(start, cfg.Faults.Sorted(), func(ev faults.NodeEvent) time.Duration { return ev.At },
		func(ev faults.NodeEvent) {
			if ev.Node >= len(cl.Nodes) {
				return
			}
			switch n := cl.Nodes[ev.Node]; ev.Kind {
			case faults.Crash:
				n.Close()
			case faults.Pause:
				n.Pause()
			case faults.Resume:
				n.Resume()
			}
		})
	defer stopFaults()
	stopChurn := replay(start, cfg.Membership.Sorted(), func(ev membership.Event) time.Duration { return ev.At },
		func(ev membership.Event) {
			cl.churn(func(p *membership.Pool) bool { return p.Apply(ev) })
		})
	defer stopChurn()

	if cfg.Autoscaler.Active() {
		as := membership.NewAutoscaler(cfg.Autoscaler)
		asDone := make(chan struct{})
		var asWG sync.WaitGroup
		asWG.Add(1)
		go func() {
			defer asWG.Done()
			t := time.NewTicker(as.Config().Interval)
			defer t.Stop()
			for {
				select {
				case <-asDone:
					return
				case <-t.C:
					cl.Autoscale(as, time.Since(start))
				}
			}
		}()
		defer func() {
			close(asDone)
			asWG.Wait()
		}()
	}

	for i, a := range trace {
		i, a := i, a
		client := cl.Clients[i%len(cl.Clients)]
		arrival := start.Add(time.Duration(a.Arrival * float64(time.Second)))
		serviceUs := uint32(a.Service * 1e6)
		wg.Add(1)
		time.AfterFunc(time.Until(arrival), func() {
			defer wg.Done()
			info, err := client.Access(serviceUs, nil)
			elapsed := time.Since(arrival)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				cl.Metrics.Lost.Inc()
				return
			}
			if info.Resp.Status == StatusOverload {
				return // counted by the refusing node's server_overloads_total
			}
			cl.Metrics.Completions.Inc()
			cl.Metrics.ResponseSeconds.Observe(elapsed.Seconds())
			if cfg.Policy.Kind == core.Poll {
				cl.Metrics.PollWaitSeconds.Observe(info.PollTime.Seconds())
			}
			for info.Server >= len(res.PerServer) {
				res.PerServer = append(res.PerServer, 0)
			}
			res.PerServer[info.Server]++
			if i >= warmup {
				res.Response.Add(elapsed.Seconds())
				if cfg.Policy.Kind == core.Poll {
					res.PollTime.Add(info.PollTime.Seconds())
				}
				for _, rtt := range info.PollRTTs {
					res.PollRTT.Add(rtt.Seconds())
				}
			}
		})
	}
	wg.Wait()
	res.Joins, res.Drains, res.Leaves, res.FinalPool, res.PeakPool = cl.ChurnStats()
	// Snapshot after the last access settles and before teardown, so
	// cross-metric invariants (gauges back at zero on clean runs) hold.
	res.Metrics = cl.Registry.Snapshot()
	return res, nil
}

// replay arms one timer per event, firing apply(ev) at start + at(ev)
// on the wall clock every arrival of the run is armed on. It replays
// fault and membership schedules alike; the simulator replays them on
// its event clock instead. A nil schedule's Sorted events arm nothing.
// The returned stop cancels the events that have not fired.
func replay[E any](start time.Time, events []E, at func(E) time.Duration, apply func(E)) (stop func()) {
	timers := make([]*time.Timer, len(events))
	for i, ev := range events {
		timers[i] = time.AfterFunc(time.Until(start.Add(at(ev))), func() { apply(ev) })
	}
	return func() {
		for _, t := range timers {
			t.Stop()
		}
	}
}
