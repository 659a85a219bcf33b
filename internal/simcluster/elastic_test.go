package simcluster

import (
	"strings"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
	"finelb/internal/workload"
)

func elasticWorkload(servers int, rho float64) workload.Workload {
	return workload.PoissonExp(0.05).ScaledTo(servers, rho)
}

// TestElasticInertScheduleBitIdentical is the refactor's core safety
// property in explicit form (the golden harness pins it against
// committed digests; this pins it against a same-process baseline):
// an empty membership schedule and no schedule at all produce the same
// run, draw for draw and event for event.
func TestElasticInertScheduleBitIdentical(t *testing.T) {
	w := elasticWorkload(8, 0.7)
	for _, pol := range []core.Policy{core.NewRandom(), core.NewIdeal(), core.NewPoll(2)} {
		base, err := Run(Config{Servers: 8, Workload: w, Policy: pol, Accesses: 4000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		inert, err := Run(Config{
			Servers: 8, Workload: w, Policy: pol, Accesses: 4000, Seed: 11,
			Membership: &membership.Schedule{},
			Autoscaler: &membership.AutoscalerConfig{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if base.Response.Mean() != inert.Response.Mean() ||
			base.Response.Percentile(0.99) != inert.Response.Percentile(0.99) {
			t.Errorf("%v: inert membership changed response stats", pol)
		}
		if base.EventsFired != inert.EventsFired {
			t.Errorf("%v: EventsFired %d vs %d with inert membership", pol, base.EventsFired, inert.EventsFired)
		}
		if base.Messages != inert.Messages {
			t.Errorf("%v: message counts diverged with inert membership", pol)
		}
		if inert.FinalPool != 8 || inert.PeakPool != 8 || inert.Joins+inert.Drains+inert.Leaves != 0 {
			t.Errorf("%v: inert run reports churn: %+v", pol, inert)
		}
	}
}

// TestElasticJoinGrowsPool: scheduled joins grow the pool past Servers
// and the new servers actually receive work under every elastic policy.
func TestElasticJoinGrowsPool(t *testing.T) {
	for _, pol := range []core.Policy{
		core.NewRandom(), core.NewRoundRobin(), core.NewIdeal(), core.NewLocalLeast(), core.NewPoll(2),
	} {
		t.Run(pol.String(), func(t *testing.T) {
			sched := &membership.Schedule{Events: []membership.Event{
				{At: 10 * time.Millisecond, Node: 4, Kind: membership.Join},
				{At: 10 * time.Millisecond, Node: 5, Kind: membership.Join},
			}}
			res, err := Run(Config{
				Servers: 4, Workload: elasticWorkload(4, 0.8), Policy: pol,
				Accesses: 20000, Seed: 3, Membership: sched,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Joins != 2 || res.FinalPool != 6 || res.PeakPool != 6 {
				t.Fatalf("joins=%d final=%d peak=%d, want 2/6/6", res.Joins, res.FinalPool, res.PeakPool)
			}
			if len(res.ServerUtilization) != 6 {
				t.Fatalf("utilization over %d servers, want 6", len(res.ServerUtilization))
			}
			if res.ServerUtilization[4] == 0 || res.ServerUtilization[5] == 0 {
				t.Errorf("joined servers never utilized: %v", res.ServerUtilization)
			}
			if res.Lost != 0 {
				t.Errorf("lost %d accesses on a healthy elastic run", res.Lost)
			}
		})
	}
}

// TestElasticDrainStopsRouting: a server drained before any arrival
// receives no work at all, while the run completes losslessly on the
// remaining pool.
func TestElasticDrainStopsRouting(t *testing.T) {
	for _, pol := range []core.Policy{
		core.NewRandom(), core.NewRoundRobin(), core.NewIdeal(), core.NewLocalLeast(), core.NewPoll(2),
	} {
		t.Run(pol.String(), func(t *testing.T) {
			sched := &membership.Schedule{Events: []membership.Event{
				{At: 0, Node: 0, Kind: membership.Drain},
			}}
			res, err := Run(Config{
				Servers: 8, Workload: elasticWorkload(8, 0.6), Policy: pol,
				Accesses: 5000, Seed: 5, Membership: sched,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Drains != 1 || res.FinalPool != 7 {
				t.Fatalf("drains=%d final=%d, want 1/7", res.Drains, res.FinalPool)
			}
			if res.ServerUtilization[0] != 0 {
				t.Errorf("drained server still served work (util %v)", res.ServerUtilization[0])
			}
			if res.Lost != 0 {
				t.Errorf("lost %d accesses", res.Lost)
			}
		})
	}
}

// TestElasticDrainCompletesQueuedWork: draining mid-run strands no
// accesses — queued and in-flight work at the drained server completes.
func TestElasticDrainCompletesQueuedWork(t *testing.T) {
	sched := &membership.Schedule{Events: []membership.Event{
		{At: 20 * time.Millisecond, Node: 1, Kind: membership.Drain},
		{At: 100 * time.Millisecond, Node: 1, Kind: membership.Leave},
	}}
	res, err := Run(Config{
		Servers: 4, Workload: elasticWorkload(4, 0.9), Policy: core.NewPoll(2),
		Accesses: 10000, Seed: 7, Membership: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost != 0 {
		t.Fatalf("graceful drain lost %d accesses", res.Lost)
	}
	if res.Drains != 1 || res.Leaves != 1 || res.FinalPool != 3 {
		t.Fatalf("drains=%d leaves=%d final=%d, want 1/1/3", res.Drains, res.Leaves, res.FinalPool)
	}
}

// TestElasticRejoinRestoresRouting: drain + later join brings a server
// back into rotation — the churn cycle of the heterogeneous sweep.
func TestElasticRejoinRestoresRouting(t *testing.T) {
	sched := &membership.Schedule{Events: []membership.Event{
		{At: 5 * time.Millisecond, Node: 2, Kind: membership.Drain},
		{At: 10 * time.Millisecond, Node: 2, Kind: membership.Join},
	}}
	res, err := Run(Config{
		Servers: 4, Workload: elasticWorkload(4, 0.7), Policy: core.NewIdeal(),
		Accesses: 10000, Seed: 9, Membership: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drains != 1 || res.Joins != 1 || res.FinalPool != 4 {
		t.Fatalf("drains=%d joins=%d final=%d, want 1/1/4", res.Drains, res.Joins, res.FinalPool)
	}
	if res.ServerUtilization[2] == 0 {
		t.Error("rejoined server never utilized")
	}
	if res.Lost != 0 {
		t.Errorf("lost %d accesses", res.Lost)
	}
}

// TestElasticLastMemberNeverDrains: the pool refuses to go empty.
func TestElasticLastMemberNeverDrains(t *testing.T) {
	sched := &membership.Schedule{Events: []membership.Event{
		{At: 0, Node: 0, Kind: membership.Drain},
		{At: 0, Node: 1, Kind: membership.Drain},
	}}
	res, err := Run(Config{
		Servers: 2, Workload: elasticWorkload(2, 0.5), Policy: core.NewRandom(),
		Accesses: 2000, Seed: 1, Membership: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPool != 1 {
		t.Fatalf("FinalPool = %d, want 1 (last member must keep routing)", res.FinalPool)
	}
	if res.Drains != 1 {
		t.Fatalf("Drains = %d, want 1 (second drain refused)", res.Drains)
	}
	if res.Lost != 0 {
		t.Errorf("lost %d accesses", res.Lost)
	}
}

// TestElasticAutoscalerTracksLoad: on a diurnal trace the autoscaler
// grows the pool under the peak and shrinks it past the cooldown once
// the wave subsides — the acceptance shape of the elastic experiment.
func TestElasticAutoscalerTracksLoad(t *testing.T) {
	// ~100s of simulated time: one full diurnal cycle with the peak at
	// t=50s. Base rate sized for 2 servers at rho 0.95 so the peak
	// (1.9x) badly overloads the min pool.
	w := elasticWorkload(2, 0.95).WithDiurnalArrivals(0.9, 100)
	res, err := Run(Config{
		Servers: 2, Workload: w, Policy: core.NewPoll(2),
		Accesses: 80000, Seed: 13,
		Autoscaler: &membership.AutoscalerConfig{
			Min: 2, Max: 8,
			ScaleUpAt: 3, ScaleDownAt: 0.5,
			ScaleUpCooldown: 2 * time.Second, ScaleDownCooldown: 5 * time.Second,
			Interval: 250 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins == 0 {
		t.Fatal("autoscaler never scaled up under a 1.9x diurnal peak")
	}
	if res.PeakPool <= 2 {
		t.Fatalf("PeakPool = %d, want > 2", res.PeakPool)
	}
	if res.Drains == 0 {
		t.Fatal("autoscaler never scaled down after the wave subsided")
	}
	if res.FinalPool >= res.PeakPool {
		t.Fatalf("FinalPool %d did not shrink from peak %d", res.FinalPool, res.PeakPool)
	}
	if res.Lost != 0 {
		t.Errorf("lost %d accesses", res.Lost)
	}
}

// TestElasticMetricsRegisteredOnlyWhenActive: membership metric names
// appear in elastic snapshots and stay out of fixed-pool ones (that is
// what keeps golden metric digests bit-identical).
func TestElasticMetricsRegisteredOnlyWhenActive(t *testing.T) {
	w := elasticWorkload(4, 0.6)
	fixed, err := Run(Config{Servers: 4, Workload: w, Policy: core.NewRandom(), Accesses: 1000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fixed.Metrics.Metrics {
		if strings.HasPrefix(m.Name, "membership_") || strings.HasPrefix(m.Name, "autoscaler_") {
			t.Errorf("fixed-pool snapshot contains %q", m.Name)
		}
	}
	sched := &membership.Schedule{Events: []membership.Event{
		{At: time.Millisecond, Node: 4, Kind: membership.Join},
	}}
	elastic, err := Run(Config{Servers: 4, Workload: w, Policy: core.NewRandom(), Accesses: 1000, Seed: 2, Membership: sched})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		obs.MetricMembershipJoins: 1,
		obs.MetricMembershipPool:  5,
	}
	seen := map[string]int64{}
	for _, m := range elastic.Metrics.Metrics {
		seen[m.Name] = m.Value
	}
	for name, v := range want {
		got, ok := seen[name]
		if !ok {
			t.Errorf("elastic snapshot missing %q", name)
		} else if got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
}

// TestElasticValidation: the config guard rails ("" = accepted).
func TestElasticValidation(t *testing.T) {
	w := elasticWorkload(4, 0.5)
	sched := &membership.Schedule{Events: []membership.Event{{At: 0, Node: 0, Kind: membership.Drain}}}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			"broadcast",
			Config{Servers: 4, Workload: w, Policy: core.NewBroadcast(100 * time.Millisecond), Membership: sched},
			"Broadcast",
		},
		{
			// Membership and faults combine: the run is accepted.
			"faults combo",
			Config{Servers: 4, Workload: w, Policy: core.NewRandom(), Accesses: 2000, Membership: sched,
				Faults: &faults.Schedule{Events: []faults.NodeEvent{{At: 0, Node: 1, Kind: faults.Crash}}}},
			"",
		},
		{
			"autoscaler max below servers",
			Config{Servers: 4, Workload: w, Policy: core.NewRandom(),
				Autoscaler: &membership.AutoscalerConfig{Min: 1, Max: 2}},
			"max pool",
		},
		{
			"bad membership event",
			Config{Servers: 4, Workload: w, Policy: core.NewRandom(),
				Membership: &membership.Schedule{Events: []membership.Event{{At: -1, Node: 0, Kind: membership.Join}}}},
			"negative offset",
		},
		{
			"short speed factors stay rejected",
			Config{Servers: 4, Workload: w, Policy: core.NewRandom(), Membership: sched,
				SpeedFactors: []float64{1, 1}},
			"speed factors",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(c.cfg)
			if c.want == "" {
				if err != nil {
					t.Fatalf("err = %v, want the run accepted", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
	// Elastic runs may carry extra speed factors for joinable ids.
	sched6 := &membership.Schedule{Events: []membership.Event{{At: time.Millisecond, Node: 5, Kind: membership.Join}}}
	res, err := Run(Config{
		Servers: 4, Workload: w, Policy: core.NewRandom(), Accesses: 2000, Seed: 4,
		Membership: sched6, SpeedFactors: []float64{1, 1, 1, 1, 2, 2},
	})
	if err != nil {
		t.Fatalf("elastic run with extended speed factors: %v", err)
	}
	if res.FinalPool != 5 {
		t.Fatalf("FinalPool = %d, want 5", res.FinalPool)
	}
}

// TestElasticDispatchZeroAllocs extends the hot-path gate to elastic
// pools: once a join has grown the pool (within the reserved capacity)
// and the pools are primed, steady-state dispatch allocates nothing.
func TestElasticDispatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	w := elasticWorkload(64, 0.8)
	sched := &membership.Schedule{Events: []membership.Event{
		{At: time.Millisecond, Node: 64, Kind: membership.Join},
		{At: time.Millisecond, Node: 65, Kind: membership.Join},
	}}
	for _, pol := range []core.Policy{core.NewRandom(), core.NewIdeal(), core.NewPoll(2)} {
		t.Run(pol.String(), func(t *testing.T) {
			r, err := newRunner(Config{
				Servers: 64, Workload: w, Policy: pol,
				Accesses: 400000, Seed: 7,
				Membership: sched,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60000; i++ {
				if !r.eng.ProcessNextEvent() {
					t.Fatal("run drained during priming")
				}
			}
			if r.pool.Size() != 66 {
				t.Fatalf("pool = %d after priming, want 66", r.pool.Size())
			}
			avg := testing.AllocsPerRun(8000, func() {
				r.eng.ProcessNextEvent()
			})
			if avg != 0 {
				t.Errorf("elastic steady-state dispatch allocates %.4f allocs/event, want 0", avg)
			}
		})
	}
}
