package simcluster

import (
	"reflect"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
)

// TestFaultsWithChurn runs a crash, a drain, a rejoin and the
// autoscaler in one run. Server 1 crashes at 5s and is drained at 10s;
// the schedule (and the autoscaler's first-fit scan) try to join it
// again later, which a dead server refuses. Server 3 drains and
// rejoins healthy.
func TestFaultsWithChurn(t *testing.T) {
	const crashed, rejoinAt = 1, 20 * time.Second
	cfg := func(pol core.Policy) Config {
		return Config{
			Servers: 6, Workload: elasticWorkload(6, 0.6), Policy: pol,
			Accesses: 6000, Seed: 21,
			Faults: &faults.Schedule{
				Seed:   3,
				Events: []faults.NodeEvent{{At: 5 * time.Second, Node: crashed, Kind: faults.Crash}},
				Links:  []faults.LinkRule{{Client: -1, Server: -1, Loss: 0.02}},
			},
			Membership: &membership.Schedule{Events: []membership.Event{
				{At: 10 * time.Second, Node: crashed, Kind: membership.Drain},
				{At: 15 * time.Second, Node: 3, Kind: membership.Drain},
				{At: rejoinAt, Node: crashed, Kind: membership.Join},
				{At: 25 * time.Second, Node: 3, Kind: membership.Join},
			}},
			Autoscaler: &membership.AutoscalerConfig{
				Min: 4, Max: 8,
				ScaleUpAt: 2, ScaleDownAt: 0.3,
				ScaleUpCooldown: 2 * time.Second, ScaleDownCooldown: 5 * time.Second,
				Interval: 250 * time.Millisecond,
			},
			Trace: obs.NewTrace(1 << 16),
		}
	}
	for _, pol := range []core.Policy{
		core.NewRandom(), core.NewRoundRobin(), core.NewIdeal(), core.NewLocalLeast(),
		core.NewPollDiscard(2, 10*time.Millisecond),
	} {
		t.Run(pol.String(), func(t *testing.T) {
			c := cfg(pol)
			res := run(t, c)
			t.Logf("joins=%d drains=%d leaves=%d peak=%d final=%d lost=%d retries=%d",
				res.Joins, res.Drains, res.Leaves, res.PeakPool, res.FinalPool, res.Lost, res.Retries)
			completed := res.Metrics.Value(obs.MetricCompletions)
			if completed+res.Lost != int64(c.Accesses) {
				t.Fatalf("completed %d + lost %d != %d accesses", completed, res.Lost, c.Accesses)
			}
			if (pol.Kind == core.Random || pol.Kind == core.Poll) && res.Lost != 0 {
				t.Fatalf("lost %d accesses with live routable servers left", res.Lost)
			}
			if res.Drains == 0 || res.Joins == 0 {
				t.Fatalf("no churn: joins=%d drains=%d", res.Joins, res.Drains)
			}
			for _, ev := range c.Trace.Events() {
				if ev.Name == "access.dispatch" && ev.A == crashed && ev.T >= rejoinAt.Seconds() {
					t.Fatalf("dispatched to crashed server %d at %.3fs, after its refused rejoin", crashed, ev.T)
				}
				if ev.Name == "server.join" && ev.Actor == "server:1" {
					t.Fatalf("crashed server rejoined at %.3fs", ev.T)
				}
			}

			again := run(t, cfg(pol))
			a, b := digestOf(pol.String(), 21, res), digestOf(pol.String(), 21, again)
			if !reflect.DeepEqual(a, b) || res.Joins != again.Joins || res.Drains != again.Drains ||
				res.Leaves != again.Leaves || res.PeakPool != again.PeakPool || res.FinalPool != again.FinalPool {
				t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
			}
		})
	}
}
