package cluster

import (
	"math"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
	"finelb/internal/workload"
)

// fastWorkload returns a Poisson/Exp workload with a short mean service
// time so end-to-end tests stay quick, scaled to the given load.
func fastWorkload(servers int, rho float64) workload.Workload {
	return workload.PoissonExp(2e-3).ScaledTo(servers, rho)
}

func TestRunExperimentValidation(t *testing.T) {
	bad := []ExperimentConfig{
		{},           // no servers
		{Servers: 2}, // no workload
	}
	for i, cfg := range bad {
		if _, err := RunExperiment(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestRunExperimentRandomSmall(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Servers: 4, Clients: 2,
		Workload: fastWorkload(4, 0.5),
		Policy:   core.NewRandom(),
		Accesses: 800, Seed: 1,
		SlowProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lost := res.Metrics.Value(obs.MetricLost); lost != 0 {
		t.Fatalf("lost: %d", lost)
	}
	if res.Response.N() != 720 { // 10% warmup excluded
		t.Fatalf("responses %d", res.Response.N())
	}
	// Every access must have landed somewhere.
	var total int64
	for _, v := range res.PerServer {
		total += v
	}
	if total != 800 {
		t.Fatalf("per-server sum %d", total)
	}
	// Mean response at 50% load with 2ms exp service: ~4ms + overheads,
	// certainly below 50ms on loopback.
	if m := res.MeanResponse(); m <= 0 || m > 0.05 {
		t.Fatalf("mean response %.4f out of plausible range", m)
	}
}

func TestRunExperimentPollCollectsPollStats(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Servers: 4, Clients: 2,
		Workload: fastWorkload(4, 0.5),
		Policy:   core.NewPoll(2),
		Accesses: 600, Seed: 2,
		SlowProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if polled := res.Metrics.Value(obs.MetricPollRequests); polled != 2*600 {
		t.Fatalf("polled %d, want 1200", polled)
	}
	if discarded := res.Metrics.Value(obs.MetricPollDiscards); discarded != 0 {
		t.Fatalf("discarded %d", discarded)
	}
	if res.PollTime.N() == 0 || res.PollRTT.N() == 0 {
		t.Fatal("poll statistics not collected")
	}
	if res.PollTime.Mean() <= 0 || res.PollTime.Mean() > 0.01 {
		t.Fatalf("poll time mean %.6f implausible on loopback", res.PollTime.Mean())
	}
	if done := res.Metrics.Value(obs.MetricCompletions); done != 600 {
		t.Fatalf("completions %d, want 600", done)
	}
}

func TestRunExperimentIdeal(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Servers: 4, Clients: 2,
		Workload: fastWorkload(4, 0.6),
		Policy:   core.NewIdeal(),
		Accesses: 600, Seed: 3,
		SlowProb: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lost := res.Metrics.Value(obs.MetricLost); lost != 0 {
		t.Fatalf("lost: %d", lost)
	}
	// The manager must spread load evenly: no server more than twice
	// the per-server mean.
	mean := 600.0 / 4
	for i, v := range res.PerServer {
		if float64(v) > 2*mean || v == 0 {
			t.Fatalf("server %d got %d accesses (%v)", i, v, res.PerServer)
		}
	}
}

func TestRunExperimentPollBeatsRandomUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load comparison needs a few seconds")
	}
	// At 90% load the paper's central claim must hold end-to-end on the
	// real prototype: poll-2 clearly beats random.
	base := ExperimentConfig{
		Servers: 8, Clients: 3,
		Workload: fastWorkload(8, 0.9),
		Accesses: 6000, Seed: 4,
		SlowProb: -1,
	}
	randomCfg := base
	randomCfg.Policy = core.NewRandom()
	pollCfg := base
	pollCfg.Policy = core.NewPoll(2)
	randomRes, err := RunExperiment(randomCfg)
	if err != nil {
		t.Fatal(err)
	}
	pollRes, err := RunExperiment(pollCfg)
	if err != nil {
		t.Fatal(err)
	}
	if pollRes.MeanResponse() >= randomRes.MeanResponse() {
		t.Fatalf("poll2 (%.4f) not better than random (%.4f) at 90%%",
			pollRes.MeanResponse(), randomRes.MeanResponse())
	}
}

func TestStartClusterIncompleteTables(t *testing.T) {
	// A zero-server cluster cannot satisfy the readiness wait.
	cl, err := StartCluster(ExperimentConfig{Servers: 0, Clients: 1, Policy: core.NewRandom()})
	if err == nil {
		cl.Close()
		// Zero servers means tables are trivially "complete"; accept
		// either behaviour but ensure no panic and cleanup works.
	}
}

func TestRunExperimentDeterministicSchedule(t *testing.T) {
	// Same seed produces the same access schedule (wall-clock noise will
	// differ, but the per-server totals under round-robin are fixed).
	cfg := ExperimentConfig{
		Servers: 3, Clients: 1,
		Workload: fastWorkload(3, 0.3),
		Policy:   core.NewRoundRobin(),
		Accesses: 300, Seed: 6,
		SlowProb: -1,
	}
	a, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.PerServer {
		if math.Abs(float64(a.PerServer[i]-b.PerServer[i])) > 0 {
			t.Fatalf("round-robin distribution diverged: %v vs %v", a.PerServer, b.PerServer)
		}
	}
}

// replayFiring is one event a replayed schedule applied, and when.
type replayFiring struct {
	node int
	kind string
	at   time.Duration
	when time.Time
}

// checkReplay waits for fired to deliver want, in order, by node and
// kind, each no earlier than start + At. It then calls stop and requires
// that nothing more fires by start + quiet.
func checkReplay(t *testing.T, fired <-chan replayFiring, start time.Time, want []replayFiring, stop func(), quiet time.Duration) {
	t.Helper()
	for _, w := range want {
		select {
		case f := <-fired:
			if f.node != w.node || f.kind != w.kind {
				t.Fatalf("%s of node %d fired, want %s of node %d", f.kind, f.node, w.kind, w.node)
			}
			if early := start.Add(f.at).Sub(f.when); early > 0 {
				t.Errorf("%s of node %d fired %v before start+At", f.kind, f.node, early)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s of node %d never fired", w.kind, w.node)
		}
	}
	stop()
	time.Sleep(time.Until(start.Add(quiet)))
	select {
	case f := <-fired:
		t.Errorf("stop did not cancel the %s of node %d", f.kind, f.node)
	default:
	}
}

func TestReplaySchedule(t *testing.T) {
	// Events fire in At order (declaration order is not), each no
	// earlier than start + At; stop cancels the one not yet due.
	t.Run("faults", func(t *testing.T) {
		fired := make(chan replayFiring, 3) // one slot per event, so no timer blocks
		start := time.Now().Add(20 * time.Millisecond)
		fs := &faults.Schedule{Events: []faults.NodeEvent{
			{At: 300 * time.Millisecond, Node: 1, Kind: faults.Pause},
			{At: 10 * time.Millisecond, Node: 0, Kind: faults.Crash},
			{At: 700 * time.Millisecond, Node: 2, Kind: faults.Crash},
		}}
		stop := replay(start, fs.Sorted(), func(ev faults.NodeEvent) time.Duration { return ev.At },
			func(ev faults.NodeEvent) { fired <- replayFiring{ev.Node, ev.Kind.String(), ev.At, time.Now()} })
		defer stop()
		// A nil schedule arms nothing.
		var none *faults.Schedule
		stopNone := replay(start, none.Sorted(), func(ev faults.NodeEvent) time.Duration { return ev.At },
			func(ev faults.NodeEvent) { t.Errorf("nil schedule fired %+v", ev) })
		defer stopNone()
		checkReplay(t, fired, start, []replayFiring{{node: 0, kind: "crash"}, {node: 1, kind: "pause"}},
			stop, 800*time.Millisecond)
	})
	// Membership events replay through the same helper.
	t.Run("membership", func(t *testing.T) {
		fired := make(chan replayFiring, 3)
		start := time.Now().Add(20 * time.Millisecond)
		ms := &membership.Schedule{Events: []membership.Event{
			{At: 200 * time.Millisecond, Node: 4, Kind: membership.Drain},
			{At: 600 * time.Millisecond, Node: 4, Kind: membership.Leave},
			{At: 100 * time.Millisecond, Node: 4, Kind: membership.Join},
		}}
		stop := replay(start, ms.Sorted(), func(ev membership.Event) time.Duration { return ev.At },
			func(ev membership.Event) { fired <- replayFiring{ev.Node, ev.Kind.String(), ev.At, time.Now()} })
		defer stop()
		var none *membership.Schedule
		stopNone := replay(start, none.Sorted(), func(ev membership.Event) time.Duration { return ev.At },
			func(ev membership.Event) { t.Errorf("nil schedule fired %+v", ev) })
		defer stopNone()
		checkReplay(t, fired, start, []replayFiring{{node: 4, kind: "join"}, {node: 4, kind: "drain"}},
			stop, 700*time.Millisecond)
	})
}
