package simcluster

import (
	"math"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/queueing"
	"finelb/internal/stats"
	"finelb/internal/workload"
)

// run is a test helper with noise-reducing defaults.
func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(1, 0.5)
	bad := []Config{
		{},           // no servers
		{Servers: 1}, // no workload
		{Servers: 1, Workload: w, Policy: core.Policy{Kind: core.Poll}},   // poll size 0
		{Servers: 1, Workload: w, Policy: core.NewRandom(), Clients: -1},  // negative clients
		{Servers: 1, Workload: w, Policy: core.NewRandom(), Accesses: -5}, // negative accesses
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSingleServerMatchesMM1(t *testing.T) {
	// One server fed with Poisson/Exp at rho: mean response must match
	// s/(1-rho) plus the two network hops.
	for _, rho := range []float64{0.5, 0.8} {
		const s = 0.05
		w := workload.PoissonExp(s).ScaledTo(1, rho)
		res := run(t, Config{
			Servers: 1, Workload: w, Policy: core.NewRandom(),
			Accesses: 60000, Seed: 1,
		})
		want := queueing.MM1MeanResponse(s, rho) + 2*DefaultServiceNetDelay.Seconds()
		got := res.MeanResponse()
		if math.Abs(got-want)/want > 0.08 {
			t.Errorf("rho=%v: mean response %.4f, want ~%.4f", rho, got, want)
		}
		if u := res.MeanUtilization(); math.Abs(u-rho) > 0.05 {
			t.Errorf("rho=%v: utilization %.3f", rho, u)
		}
		// Little's law cross-check on the queue length.
		wantQ := queueing.MM1MeanQueueLength(rho)
		if math.Abs(res.MeanQueueLength-wantQ)/wantQ > 0.15 {
			t.Errorf("rho=%v: mean queue %.3f, want ~%.3f", rho, res.MeanQueueLength, wantQ)
		}
	}
}

func TestRandomEqualsMM1On16Servers(t *testing.T) {
	// Random splitting of a Poisson stream keeps each server M/M/1, so
	// random on 16 servers equals one M/M/1 at the same utilization.
	const s, rho = 0.05, 0.7
	w := workload.PoissonExp(s).ScaledTo(16, rho)
	res := run(t, Config{
		Servers: 16, Workload: w, Policy: core.NewRandom(),
		Accesses: 120000, Seed: 2,
	})
	want := queueing.MM1MeanResponse(s, rho) + 2*DefaultServiceNetDelay.Seconds()
	if got := res.MeanResponse(); math.Abs(got-want)/want > 0.08 {
		t.Errorf("mean response %.4f, want ~%.4f", got, want)
	}
}

func TestPollBeatsRandomAndIdealBeatsPoll(t *testing.T) {
	// The paper's Figure 4 ordering at 90%: random >> poll2 >= poll3 >=
	// ideal (sim-world, where polls cost one constant RTT).
	const s, rho = 0.05, 0.9
	w := workload.PoissonExp(s).ScaledTo(16, rho)
	mean := func(p core.Policy, seed uint64) float64 {
		return run(t, Config{
			Servers: 16, Workload: w, Policy: p, Accesses: 120000, Seed: seed,
		}).MeanResponse()
	}
	random := mean(core.NewRandom(), 3)
	poll2 := mean(core.NewPoll(2), 3)
	poll8 := mean(core.NewPoll(8), 3)
	ideal := mean(core.NewIdeal(), 3)
	if poll2 >= random/2 {
		t.Errorf("poll2 (%.4f) not dramatically better than random (%.4f)", poll2, random)
	}
	if poll8 > poll2*1.1 {
		t.Errorf("in simulation poll8 (%.4f) should not degrade vs poll2 (%.4f)", poll8, poll2)
	}
	if ideal > poll2*1.05 {
		t.Errorf("ideal (%.4f) worse than poll2 (%.4f)", ideal, poll2)
	}
	// Poll-2's mean queue should track Mitzenmacher's asymptotic model
	// loosely (finite N, latencies, so allow generous tolerance).
	wantQ := queueing.PowerOfDMeanQueue(rho, 2)
	res := run(t, Config{Servers: 16, Workload: w, Policy: core.NewPoll(2), Accesses: 120000, Seed: 4})
	if math.Abs(res.MeanQueueLength-wantQ)/wantQ > 0.5 {
		t.Errorf("poll2 mean queue %.3f vs supermarket model %.3f", res.MeanQueueLength, wantQ)
	}
}

func TestRoundRobinBetweenRandomAndIdeal(t *testing.T) {
	const s, rho = 0.05, 0.8
	w := workload.PoissonExp(s).ScaledTo(16, rho)
	mean := func(p core.Policy) float64 {
		return run(t, Config{Servers: 16, Workload: w, Policy: p, Accesses: 80000, Seed: 5}).MeanResponse()
	}
	random := mean(core.NewRandom())
	rr := mean(core.NewRoundRobin())
	ideal := mean(core.NewIdeal())
	if !(rr < random && rr > ideal) {
		t.Errorf("ordering violated: random=%.4f rr=%.4f ideal=%.4f", random, rr, ideal)
	}
}

func TestBroadcastIntervalSensitivity(t *testing.T) {
	// §2.2: at 90% busy, a 1 s mean broadcast interval is an order of
	// magnitude slower than a short interval for fine-grain work.
	const s, rho = 0.05, 0.9
	w := workload.PoissonExp(s).ScaledTo(16, rho)
	mean := func(interval time.Duration) float64 {
		return run(t, Config{
			Servers: 16, Workload: w, Policy: core.NewBroadcast(interval),
			Accesses: 60000, Seed: 6,
		}).MeanResponse()
	}
	fast := mean(5 * time.Millisecond)
	slow := mean(1 * time.Second)
	if slow < fast*3 {
		t.Errorf("slow broadcast (%.4f) not much worse than fast (%.4f)", slow, fast)
	}
}

func TestBroadcastLocalCorrectionHelps(t *testing.T) {
	// Ablation A1: local increment dampens flocking between broadcasts.
	const s, rho = 0.05, 0.9
	w := workload.PoissonExp(s).ScaledTo(16, rho)
	base := core.NewBroadcast(200 * time.Millisecond)
	corrected := base
	corrected.LocalCorrection = true
	plain := run(t, Config{Servers: 16, Workload: w, Policy: base, Accesses: 60000, Seed: 7}).MeanResponse()
	fixed := run(t, Config{Servers: 16, Workload: w, Policy: corrected, Accesses: 60000, Seed: 7}).MeanResponse()
	if fixed > plain {
		t.Errorf("local correction made broadcast worse: %.4f vs %.4f", fixed, plain)
	}
}

func TestMessageAccounting(t *testing.T) {
	const s, rho = 0.05, 0.5
	w := workload.PoissonExp(s).ScaledTo(16, rho)
	const n = 20000
	res := run(t, Config{Servers: 16, Workload: w, Policy: core.NewPoll(3), Accesses: n, Seed: 8})
	if res.Messages.PollRequests != 3*n {
		t.Errorf("poll requests %d, want %d", res.Messages.PollRequests, 3*n)
	}
	if res.Messages.PollResponses != 3*n {
		t.Errorf("poll responses %d, want %d", res.Messages.PollResponses, 3*n)
	}
	if res.Messages.Dispatches != n {
		t.Errorf("dispatches %d, want %d", res.Messages.Dispatches, n)
	}
	if res.Messages.PollsDiscarded != 0 {
		t.Errorf("unexpected discards %d", res.Messages.PollsDiscarded)
	}

	resB := run(t, Config{
		Servers: 16, Clients: 4, Workload: w,
		Policy: core.NewBroadcast(50 * time.Millisecond), Accesses: n, Seed: 9,
	})
	if resB.Messages.Broadcasts == 0 {
		t.Fatal("no broadcasts counted")
	}
	if got, want := resB.Messages.BroadcastDeliveries, resB.Messages.Broadcasts*4; got != want {
		t.Errorf("deliveries %d, want %d", got, want)
	}
}

func TestPollDiscardWithJitter(t *testing.T) {
	// With a heavy-tailed poll jitter and a tight discard threshold,
	// some polls must be discarded yet all accesses still complete.
	const s, rho = 0.0222, 0.9
	w := workload.PoissonExp(s).ScaledTo(16, rho)
	const n = 30000
	res := run(t, Config{
		Servers: 16, Workload: w,
		Policy:     core.NewPollDiscard(3, 2*time.Millisecond),
		PollJitter: stats.Pareto{Xm: 0.0001, Alpha: 1.2},
		Accesses:   n, Seed: 10,
	})
	if res.Messages.PollsDiscarded == 0 {
		t.Fatal("no polls discarded despite heavy jitter")
	}
	if res.Response.N() == 0 {
		t.Fatal("no responses recorded")
	}
	// Polling time is capped by the discard threshold.
	if maxPoll := res.PollTime.Max(); maxPoll > 0.0021 {
		t.Errorf("poll time %.5f exceeds discard threshold", maxPoll)
	}

	// Without discard, polling time is unbounded by the threshold.
	res2 := run(t, Config{
		Servers: 16, Workload: w, Policy: core.NewPoll(3),
		PollJitter: stats.Pareto{Xm: 0.0001, Alpha: 1.2},
		Accesses:   n, Seed: 10,
	})
	if res2.PollTime.Max() <= 0.0021 {
		t.Errorf("undiscarded poll max %.5f suspiciously small", res2.PollTime.Max())
	}
}

func TestDeterminism(t *testing.T) {
	const s, rho = 0.05, 0.9
	w := workload.PoissonExp(s).ScaledTo(16, rho)
	cfg := Config{Servers: 16, Workload: w, Policy: core.NewPoll(2), Accesses: 20000, Seed: 11}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.MeanResponse() != b.MeanResponse() {
		t.Fatalf("same seed diverged: %v vs %v", a.MeanResponse(), b.MeanResponse())
	}
	cfg.Seed = 12
	c := run(t, cfg)
	if a.MeanResponse() == c.MeanResponse() {
		t.Fatal("different seeds produced identical results")
	}
}

func TestQueueSeriesRecorded(t *testing.T) {
	const s, rho = 0.05, 0.9
	w := workload.PoissonExp(s).ScaledTo(1, rho)
	res := run(t, Config{
		Servers: 1, Workload: w, Policy: core.NewRandom(),
		Accesses: 30000, Seed: 13, RecordQueueSeries: true,
	})
	if len(res.QueueSeries) != 1 {
		t.Fatalf("series count %d", len(res.QueueSeries))
	}
	qs := res.QueueSeries[0]
	if qs.Len() < 30000 {
		t.Fatalf("series too short: %d points", qs.Len())
	}
	// The series' time average must agree with the tracked mean queue.
	avg := qs.TimeAverage(0, res.SimDuration)
	if math.Abs(avg-res.MeanQueueLength) > 0.02*math.Max(1, res.MeanQueueLength) {
		t.Fatalf("series average %.4f vs tracked %.4f", avg, res.MeanQueueLength)
	}
}

func TestStalenessInaccuracyBelowEquation1(t *testing.T) {
	// Figure 2 / Eq. 1: measured inaccuracy approaches but does not
	// exceed the closed-form bound for Poisson/Exp.
	const s, rho = 0.05, 0.9
	w := workload.PoissonExp(s).ScaledTo(1, rho)
	res := run(t, Config{
		Servers: 1, Workload: w, Policy: core.NewRandom(),
		Accesses: 150000, Seed: 14, RecordQueueSeries: true,
	})
	qs := res.QueueSeries[0]
	bound := queueing.StalenessUpperBound(rho)
	warm := res.SimDuration * 0.1
	small := qs.Inaccuracy(0.1*s, warm, res.SimDuration, s)
	large := qs.Inaccuracy(100*s, warm, res.SimDuration, s)
	if small > large {
		t.Errorf("inaccuracy not increasing: %.3f (small delay) > %.3f (large delay)", small, large)
	}
	if large > bound*1.15 {
		t.Errorf("inaccuracy %.3f exceeds Eq.1 bound %.3f", large, bound)
	}
	if large < bound*0.5 {
		t.Errorf("inaccuracy %.3f far below bound %.3f — not converging", large, bound)
	}
}

func TestFineGrainTraceRuns(t *testing.T) {
	w := workload.FineGrain().ScaledTo(16, 0.9)
	res := run(t, Config{Servers: 16, Workload: w, Policy: core.NewPoll(3), Accesses: 40000, Seed: 15})
	if res.Response.N() == 0 {
		t.Fatal("no responses")
	}
	// Bursty trace at 90%: response must exceed bare service + network.
	minPossible := workload.FineGrainServiceMean
	if res.MeanResponse() < minPossible {
		t.Fatalf("mean response %.5f below service time", res.MeanResponse())
	}
	if u := res.MeanUtilization(); math.Abs(u-0.9) > 0.12 {
		t.Errorf("utilization %.3f, want ~0.9", u)
	}
}

func TestWarmupExcluded(t *testing.T) {
	const s, rho = 0.05, 0.5
	w := workload.PoissonExp(s).ScaledTo(4, rho)
	const n = 10000
	res := run(t, Config{Servers: 4, Workload: w, Policy: core.NewRandom(), Accesses: n, Seed: 16})
	if got := res.Response.N(); got != int64(n-n/10) {
		t.Fatalf("post-warmup responses %d, want %d", got, n-n/10)
	}
}

func TestLocalLeastBetweenRandomAndIdeal(t *testing.T) {
	// Client-local least-connections beats random (it avoids its own
	// hot spots) but cannot reach IDEAL (it only sees 1/Clients of the
	// traffic).
	const s, rho = 0.05, 0.9
	w := workload.PoissonExp(s).ScaledTo(16, rho)
	mean := func(p core.Policy) float64 {
		return run(t, Config{Servers: 16, Workload: w, Policy: p, Accesses: 80000, Seed: 21}).MeanResponse()
	}
	random := mean(core.NewRandom())
	ll := mean(core.NewLocalLeast())
	ideal := mean(core.NewIdeal())
	if !(ll < random) {
		t.Errorf("least-conn %.4f not below random %.4f", ll, random)
	}
	if !(ll > ideal) {
		t.Errorf("least-conn %.4f not above ideal %.4f", ll, ideal)
	}
}

func TestLocalLeastSingleClientNearIdeal(t *testing.T) {
	// With exactly one client, local outstanding counts equal the
	// manager's view, so least-conn approximates IDEAL.
	const s, rho = 0.05, 0.9
	w := workload.PoissonExp(s).ScaledTo(16, rho)
	ll := run(t, Config{Servers: 16, Clients: 1, Workload: w, Policy: core.NewLocalLeast(), Accesses: 80000, Seed: 22}).MeanResponse()
	ideal := run(t, Config{Servers: 16, Clients: 1, Workload: w, Policy: core.NewIdeal(), Accesses: 80000, Seed: 22}).MeanResponse()
	if ll > ideal*1.25 {
		t.Errorf("single-client least-conn %.4f far above ideal %.4f", ll, ideal)
	}
}

func TestHeterogeneousValidation(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(2, 0.5)
	if _, err := Run(Config{Servers: 2, Workload: w, Policy: core.NewRandom(),
		SpeedFactors: []float64{1}}); err == nil {
		t.Error("wrong-length speed factors accepted")
	}
	if _, err := Run(Config{Servers: 2, Workload: w, Policy: core.NewRandom(),
		SpeedFactors: []float64{1, 0}}); err == nil {
		t.Error("zero speed factor accepted")
	}
}

func TestHeterogeneousPollAdaptsToSpeeds(t *testing.T) {
	// Half the servers run 3x faster. Queue-length polling steers load
	// toward the fast half automatically (their queues drain faster),
	// while random splits evenly and overloads the slow half.
	const s = 0.05
	speeds := make([]float64, 16)
	for i := range speeds {
		if i < 8 {
			speeds[i] = 3
		} else {
			speeds[i] = 1
		}
	}
	// Aggregate capacity = (8*3 + 8*1)/s; drive it at 80% of that.
	totalSpeed := 8*3.0 + 8*1.0
	w := workload.Workload{
		Name:    "het",
		Arrival: stats.Exponential{MeanValue: s / (0.8 * totalSpeed)},
		Service: stats.Exponential{MeanValue: s},
	}
	random, err := Run(Config{Servers: 16, Workload: w, Policy: core.NewRandom(),
		SpeedFactors: speeds, Accesses: 80000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	poll, err := Run(Config{Servers: 16, Workload: w, Policy: core.NewPoll(2),
		SpeedFactors: speeds, Accesses: 80000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// Random at these rates drives slow servers to rho=1.6 (unstable);
	// polling must remain stable and far faster.
	if poll.MeanResponse() >= random.MeanResponse()/3 {
		t.Fatalf("poll2 (%.4f) not dramatically better than random (%.4f) on a heterogeneous cluster",
			poll.MeanResponse(), random.MeanResponse())
	}
	// Fast servers must have absorbed more work under polling.
	fastBusy := 0.0
	slowBusy := 0.0
	for i, u := range poll.ServerUtilization {
		if i < 8 {
			fastBusy += u
		} else {
			slowBusy += u
		}
	}
	// Utilization is busyTime/wall; a fast server at equal share would
	// sit at 1/3 the slow server's utilization. Polling should keep the
	// slow half from saturating.
	if slowBusy/8 > 0.999 {
		t.Fatalf("slow half saturated under polling: %.3f", slowBusy/8)
	}
}
