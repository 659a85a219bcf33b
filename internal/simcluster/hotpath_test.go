package simcluster

import (
	"fmt"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/workload"
)

// TestDispatchPathZeroAllocs is the hot path's allocation gate: once
// the access and poll-round slabs, the event heap and the lane rings
// have grown to the in-flight population, driving the simulation event
// by event allocates nothing per event. The run is fully
// deterministic (fixed seed, fixed event sequence), so the measured
// window is reproducible. The window ends near access 17,000, inside
// the first warmupFrac of the 400,000 accesses, so it exercises
// dispatch alone; recording samples into the reserved summaries is
// gated by TestSummaryReserveZeroAllocs.
func TestDispatchPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	w := workload.PoissonExp(0.05).ScaledTo(64, 0.8)
	base := func(pol core.Policy) Config {
		return Config{
			Servers: 64, Workload: w, Policy: pol,
			Accesses: 400000, Seed: 7,
		}
	}
	type zcase struct {
		name string
		cfg  Config
	}
	var cases []zcase
	for _, pol := range []core.Policy{
		core.NewRandom(),
		core.NewRoundRobin(),
		core.NewIdeal(),
		core.NewLocalLeast(),
		core.NewPoll(2),
		core.NewPoll(8),
		core.NewBroadcast(10 * time.Millisecond),
	} {
		cases = append(cases, zcase{pol.String(), base(pol)})
	}
	// The fault path: every inquiry crosses a slow, lossy link, so
	// rounds go silent, retry, and quarantine servers.
	links := &faults.Schedule{Seed: 9, Links: []faults.LinkRule{
		{Client: -1, Server: -1, Latency: 200 * time.Microsecond, Loss: 0.01},
	}}
	lossy := base(core.NewPoll(2))
	lossy.Faults = links
	cases = append(cases, zcase{"poll-2-link-faults", lossy})
	// Faults and churn together: a crash and pool changes during
	// priming, then lossy polling over the grown pool.
	combined := base(core.NewPollDiscard(2, 10*time.Millisecond))
	combined.Faults = &faults.Schedule{Seed: 9, Links: links.Links, Events: []faults.NodeEvent{
		{At: time.Second, Node: 0, Kind: faults.Crash},
	}}
	combined.Membership = &membership.Schedule{Events: []membership.Event{
		{At: time.Second, Node: 64, Kind: membership.Join},
		{At: 2 * time.Second, Node: 5, Kind: membership.Drain},
	}}
	cases = append(cases, zcase{"faults-and-churn", combined})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := newRunner(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Grow the slabs and reach the stochastic steady state.
			for i := 0; i < 60000; i++ {
				if !r.eng.ProcessNextEvent() {
					t.Fatal("run drained during priming")
				}
			}
			// One measured window, so the count is exact (a per-event
			// AllocsPerRun average truncates, hiding anything under one
			// allocation per event). A slab or queue may still grow at a
			// new in-flight high-water mark; a per-event allocation
			// would show as thousands.
			const events = 8000
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < events; i++ {
					r.eng.ProcessNextEvent()
				}
			})
			if allocs > events/100 {
				t.Errorf("steady-state dispatch allocates %.0f times in %d events, want only rare pool-growth mints", allocs, events)
			}
		})
	}
}

// TestRunAllocCeiling bounds what a whole run allocates per access at
// scale: 10,000 servers under the Fine-Grain trace at 90% load, Poll(3),
// 100,000 accesses. Set-up, the reserved samples, and the slab blocks,
// lane rings and server queues that grow to the in-flight population
// are all counted. Events carry record ids to callbacks bound once per
// run, so nothing is allocated per access; a bound closure or record
// minted per access would show as one allocation per access or more.
func TestRunAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	const (
		servers  = 10000
		accesses = 100000
		ceiling  = 0.22 // allocations per access; a run measured 0.19
	)
	cfg := Config{
		Servers:  servers,
		Workload: workload.FineGrain().ScaledTo(servers, 0.9),
		Policy:   core.NewPoll(3),
		Accesses: accesses,
		Seed:     1,
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / accesses; per > ceiling {
		t.Errorf("a run allocates %.0f times, %.2f per access; want at most %.2f", allocs, per, ceiling)
	}
}

// TestFixedDelaysRideLanes checks that the delays newRunner declares as
// lanes are the ones the access machine schedules. Firing order is the
// same either way, so a drifted delay would only move events back to the
// heap and lose the speed-up without any other test noticing. Per
// access, the arrival and the service completion are heap events; the
// request and response ride the DefaultServiceNetDelay lane, and a Poll(d)
// round's d observations and its decision ride the poll lanes.
func TestFixedDelaysRideLanes(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(64, 0.8)
	for _, tc := range []struct {
		pol       core.Policy
		perAccess uint64 // lane events per access
	}{
		{core.NewRandom(), 2},
		{core.NewPoll(3), 2 + 3 + 1},
	} {
		t.Run(tc.pol.String(), func(t *testing.T) {
			const accesses = 5000
			r, err := newRunner(Config{Servers: 64, Workload: w, Policy: tc.pol, Accesses: accesses, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			r.eng.Run()
			if got, want := r.eng.LaneFired(), accesses*tc.perAccess; got != want {
				t.Errorf("%d of %d events fired from lanes, want %d", got, r.eng.Fired(), want)
			}
		})
	}
}

// BenchmarkRunPolicy measures whole-run throughput per policy; the
// events/sec figure here is what the simscale benchmark record tracks
// across commits.
func BenchmarkRunPolicy(b *testing.B) {
	poisson := workload.PoissonExp(0.002)
	for _, bench := range []struct {
		name    string
		servers int
		pol     core.Policy
		w       workload.Workload
		load    float64
	}{
		{"random-1k", 1000, core.NewRandom(), poisson, 0.8},
		{"poll2-1k", 1000, core.NewPoll(2), poisson, 0.8},
		{"poll8-1k", 1000, core.NewPoll(8), poisson, 0.8},
		{"ideal-1k", 1000, core.NewIdeal(), poisson, 0.8},
		// The simulator workload of the perfbench sim_fine_10k benchmark.
		{"poll3-finegrain-10k", 10000, core.NewPoll(3), workload.FineGrain(), 0.9},
	} {
		b.Run(bench.name, func(b *testing.B) {
			w := bench.w.ScaledTo(bench.servers, bench.load)
			b.ReportAllocs()
			var events uint64
			var secs float64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{
					Servers: bench.servers, Workload: w, Policy: bench.pol,
					Accesses: 50000, Seed: uint64(i) + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				events += res.EventsFired
				secs += res.SimDuration
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/run")
		})
	}
}

// TestEventsFired pins the new Result field: the engine reports how
// many events a run executed, and the count scales with accesses.
func TestEventsFired(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(8, 0.5)
	small, err := Run(Config{Servers: 8, Workload: w, Policy: core.NewRandom(), Accesses: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(Config{Servers: 8, Workload: w, Policy: core.NewRandom(), Accesses: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Random policy: arrival + request + service completion + response
	// per access, so ~4 events per access.
	if small.EventsFired < 3500 || small.EventsFired > 4500 {
		t.Errorf("EventsFired = %d for 1000 accesses, want ~4000", small.EventsFired)
	}
	if big.EventsFired <= small.EventsFired*3 {
		t.Errorf("EventsFired did not scale: %d vs %d", big.EventsFired, small.EventsFired)
	}
}

// TestLazyArrivalsBoundPendingEvents pins the memory contract of lazy
// arrival chaining: the pending-event heap holds the in-flight
// population, not the whole access trace.
func TestLazyArrivalsBoundPendingEvents(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(16, 0.6)
	r, err := newRunner(Config{Servers: 16, Workload: w, Policy: core.NewRandom(), Accesses: 100000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for r.eng.ProcessNextEvent() {
		if p := r.eng.Pending(); p > peak {
			peak = p
		}
	}
	// Upfront scheduling would peak at ~100000 pending arrivals; the
	// lazy chain keeps it at the in-flight population (hundreds at
	// most for this load level).
	if peak > 5000 {
		t.Errorf("pending events peaked at %d; lazy arrival scheduling should bound this by the in-flight population", peak)
	}
	if r.completions != 100000 {
		t.Errorf("completed %d of 100000", r.completions)
	}
}

// TestIdealMatchesReferenceScan cross-checks the LoadIndex-backed IDEAL
// dispatch against a from-scratch reference: committed work per server
// reconstructed from the dispatch trace, least-committed-lowest-id at
// every decision. (The golden harness pins Poll policies; this pins the
// indexed JSQ semantics.)
func TestIdealMatchesReferenceScan(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(8, 0.7)
	res, err := Run(Config{Servers: 8, Workload: w, Policy: core.NewIdeal(), Accesses: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 {
		t.Fatalf("healthy ideal run lost %d accesses", res.Lost)
	}
	// With 6 clients and deterministic JSQ, dispatches spread across
	// all servers; no server may be starved or flooded structurally.
	for i, u := range res.ServerUtilization {
		if u == 0 {
			t.Errorf("server %d never utilized under IDEAL", i)
		}
	}
	sum := fmt.Sprintf("%d", res.Messages.Dispatches)
	if res.Messages.Dispatches != 4000 {
		t.Errorf("dispatches = %s, want 4000 (no retries in a healthy run)", sum)
	}
}
