package simcluster

import (
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
	"finelb/internal/sim"
	"finelb/internal/workload"
)

// degradedSchedule kills 2 of n servers partway through a run with 5%
// poll loss everywhere — the canned degraded-mode scenario.
func degradedSchedule(n int, at time.Duration) *faults.Schedule {
	return faults.DegradedDemo(n, 2, at, 0.05, 99)
}

func TestFaultedRejectsBroadcast(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(4, 0.5)
	_, err := Run(Config{
		Servers: 4, Workload: w,
		Policy: core.NewBroadcast(100 * time.Millisecond),
		Faults: &faults.Schedule{},
	})
	if err == nil {
		t.Fatal("Broadcast with Faults accepted")
	}
}

func TestFaultedCrashCompletesAndRedistributes(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(8, 0.5)
	res := run(t, Config{
		Servers: 8, Workload: w,
		Policy:   core.NewPollDiscard(2, 10*time.Millisecond),
		Accesses: 20000, Seed: 11,
		Faults: degradedSchedule(8, 10*time.Second),
	})
	if res.Lost != 0 {
		t.Fatalf("lost %d accesses; quarantine+retry should save them all", res.Lost)
	}
	if res.Retries == 0 {
		t.Fatal("a crash run must record retries")
	}
	// The dead servers stop serving; the survivors absorb the load and
	// the run still terminates with every access accounted for.
	if res.ServerUtilization[0] >= res.ServerUtilization[7] {
		t.Fatalf("crashed server 0 busier than surviving server 7: %.3f vs %.3f",
			res.ServerUtilization[0], res.ServerUtilization[7])
	}
}

func TestFaultedDeterminism(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(8, 0.5)
	cfg := Config{
		Servers: 8, Workload: w,
		Policy:   core.NewPollDiscard(2, 10*time.Millisecond),
		Accesses: 8000, Seed: 12,
		Faults: degradedSchedule(8, 5*time.Second),
	}
	a := run(t, cfg)
	b := run(t, cfg)
	if a.Response.Mean() != b.Response.Mean() ||
		a.Lost != b.Lost || a.Retries != b.Retries ||
		a.Messages != b.Messages {
		t.Fatalf("same schedule + seed diverged:\n%+v\n%+v", a.Messages, b.Messages)
	}
	// A different fault seed must actually change the fault draws.
	cfg.Faults = faults.DegradedDemo(8, 2, 5*time.Second, 0.05, 100)
	c := run(t, cfg)
	if a.Messages == c.Messages {
		t.Fatal("different fault seed produced identical message counts")
	}
}

func TestFaultedPauseResumeLosesNothing(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(4, 0.5)
	res := run(t, Config{
		Servers: 4, Workload: w,
		Policy:   core.NewPollDiscard(2, 10*time.Millisecond),
		Accesses: 10000, Seed: 13,
		Faults: &faults.Schedule{
			Seed: 5,
			Events: []faults.NodeEvent{
				{At: 5 * time.Second, Node: 0, Kind: faults.Pause},
				{At: 8 * time.Second, Node: 0, Kind: faults.Resume},
			},
		},
	})
	// A pause stalls work but breaks no connections: everything queued
	// on the paused server completes after resume.
	if res.Lost != 0 {
		t.Fatalf("pause/resume lost %d accesses", res.Lost)
	}
}

func TestFaultedTotalPollLossStillCompletes(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(4, 0.4)
	res := run(t, Config{
		Servers: 4, Workload: w,
		Policy:   core.NewPollDiscard(2, 10*time.Millisecond),
		Accesses: 3000, Seed: 14,
		Faults: &faults.Schedule{
			Seed:  6,
			Links: []faults.LinkRule{{Client: -1, Server: -1, Loss: 1.0}},
		},
	})
	if res.Messages.PollResponses != 0 {
		t.Fatalf("total loss yet %d poll answers", res.Messages.PollResponses)
	}
	// Every access still dispatches via the random fallback.
	if res.Lost != 0 {
		t.Fatalf("lost %d accesses under pure poll loss (service path is healthy)", res.Lost)
	}
	if res.Response.N() == 0 {
		t.Fatal("no responses recorded")
	}
}

func TestFaultedLinkLatencyDiscards(t *testing.T) {
	// 20ms extra one-way latency pushes every answer past a 10ms
	// discard threshold: all polls discard, accesses fall back.
	w := workload.PoissonExp(0.05).ScaledTo(4, 0.4)
	res := run(t, Config{
		Servers: 4, Workload: w,
		Policy:   core.NewPollDiscard(2, 10*time.Millisecond),
		Accesses: 2000, Seed: 15,
		Faults: &faults.Schedule{
			Seed:  7,
			Links: []faults.LinkRule{{Client: -1, Server: -1, Latency: 20 * time.Millisecond}},
		},
	})
	if res.Messages.PollResponses != 0 {
		t.Fatalf("delayed answers should all miss the deadline, got %d", res.Messages.PollResponses)
	}
	if res.Lost != 0 {
		t.Fatalf("lost %d accesses", res.Lost)
	}
}

// TestAllDiscardedPicksPolledAtOnce pins the simulator's side of the
// substrates' divergence on a silent round (DESIGN.md §5). With no
// fault schedule, a round whose every answer lands after the discard
// deadline picks a polled server at once: no backoff, no re-poll. The
// prototype re-polls instead.
func TestAllDiscardedPicksPolledAtOnce(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(4, 0.5)
	res := run(t, Config{
		Servers: 4, Workload: w,
		// The deadline is shorter than DefaultPollRTT.
		Policy:   core.NewPollDiscard(2, 100*time.Microsecond),
		Accesses: 2000, Seed: 3,
	})
	if res.Messages.PollResponses != 0 || res.Messages.PollsDiscarded != 2*2000 {
		t.Fatalf("answered %d, discarded %d of %d inquiries; want every one discarded",
			res.Messages.PollResponses, res.Messages.PollsDiscarded, 2*2000)
	}
	if res.Retries != 0 || res.Lost != 0 {
		t.Fatalf("retries %d, lost %d; want 0 and 0", res.Retries, res.Lost)
	}
	if res.Response.N() != 1800 {
		t.Fatalf("%d measured responses, want 1800", res.Response.N())
	}
}

func TestEmptyScheduleBitIdenticalToHealthy(t *testing.T) {
	// An inert schedule (no events, no links) takes the healthy fast
	// path: with the unified runner the results are not merely close but
	// bit-identical, draw for draw.
	w := workload.PoissonExp(0.05).ScaledTo(8, 0.6)
	healthy := run(t, Config{
		Servers: 8, Workload: w,
		Policy:   core.NewPollDiscard(3, 10*time.Millisecond),
		Accesses: 20000, Seed: 16,
	})
	faulted := run(t, Config{
		Servers: 8, Workload: w,
		Policy:   core.NewPollDiscard(3, 10*time.Millisecond),
		Accesses: 20000, Seed: 16,
		Faults: &faults.Schedule{Seed: 1},
	})
	if faulted.Lost != 0 || faulted.Retries != 0 {
		t.Fatalf("empty schedule caused lost=%d retries=%d", faulted.Lost, faulted.Retries)
	}
	if healthy.MeanResponse() != faulted.MeanResponse() ||
		healthy.Response.Percentile(0.99) != faulted.Response.Percentile(0.99) ||
		healthy.Messages != faulted.Messages ||
		healthy.MeanQueueLength != faulted.MeanQueueLength ||
		healthy.SimDuration != faulted.SimDuration {
		t.Fatalf("empty-schedule run diverged from healthy:\n%+v\nvs\n%+v",
			faulted.Messages, healthy.Messages)
	}
}

// TestVoidedCompletionsAccountedOnce covers the completion a pause or
// crash voids while it is still scheduled: it must fire as a no-op, not
// finish an access a second time or finish one on a stalled server. On
// a small busy cluster, server 0 is paused at the instant its
// completion falls due, server 1 is paused and resumed at one instant
// mid-service (the resumed completion lands at exactly the voided
// one's time), and server 2 goes through repeated pause/resume cycles
// and then crashes while paused mid-service. The run must end with
// every access completed or lost exactly once, and no paused server's
// service may change.
func TestVoidedCompletionsAccountedOnce(t *testing.T) {
	const accesses = 20000
	w := workload.PoissonExp(0.01).ScaledTo(3, 0.8)
	var events []faults.NodeEvent
	config := func() Config {
		return Config{
			Servers: 3, Workload: w, Policy: core.NewRandom(),
			Accesses: accesses, Seed: 17,
			Faults: &faults.Schedule{Seed: 3, Events: events},
		}
	}
	add := func(at sim.Time, node int, kind faults.Kind) {
		events = append(events, faults.NodeEvent{At: time.Duration(at), Node: node, Kind: kind})
	}
	// busy runs the schedule built so far up to the first moment at or
	// after from when server srv is serving, and returns that moment and
	// when the access in service falls due. Later events act only from
	// their offsets on, so the full run agrees with this one up to then.
	busy := func(srv int, from sim.Time) (now, due sim.Time) {
		if len(events) == 0 {
			add(sim.Time(time.Hour), 2, faults.Resume) // keeps the schedule active; a no-op
		}
		r, err := newRunner(config())
		if err != nil {
			t.Fatal(err)
		}
		for s := &r.srv[srv]; r.eng.Now() < from || !s.hasCur || s.paused; {
			if !r.eng.ProcessNextEvent() {
				t.Fatal("run drained before the server was busy")
			}
		}
		return r.eng.Now(), r.srv[srv].curEnd
	}
	_, due := busy(0, sim.Time(sim.Second))
	add(due, 0, faults.Pause)
	add(due+sim.Time(50*sim.Millisecond), 0, faults.Resume)
	now, due := busy(1, sim.Time(3*sim.Second))
	mid := now + (due-now)/2
	add(mid, 1, faults.Pause)
	add(mid, 1, faults.Resume)
	for k := sim.Time(0); k < 5; k++ {
		at := sim.Time(5*sim.Second) + k*sim.Time(20*sim.Millisecond)
		add(at, 2, faults.Pause)
		add(at+sim.Time(7*sim.Millisecond), 2, faults.Resume)
	}
	now, due = busy(2, sim.Time(6*sim.Second))
	add(now+(due-now)/2, 2, faults.Pause)
	add(due+sim.Time(sim.Millisecond), 2, faults.Crash)

	r, err := newRunner(config())
	if err != nil {
		t.Fatal(err)
	}
	type svc struct {
		paused, down, hasCur bool
		cur                  int
	}
	view := func(s *serverState) svc { return svc{s.paused, s.down, s.hasCur, s.cur} }
	prev := make([]svc, len(r.srv))
	pausedAt := make([]sim.Time, len(r.srv))
	var duePauses, instantCycles, busyPauses, stalledCrashes int
	for steps := 0; r.completions+r.lost < accesses; steps++ {
		if steps > 50*accesses || !r.eng.ProcessNextEvent() {
			t.Fatalf("run did not end: %d completed and %d lost of %d after %d events", r.completions, r.lost, accesses, steps)
		}
		for i := range r.srv {
			s, p := &r.srv[i], prev[i]
			switch {
			case s.paused && !p.paused:
				pausedAt[i] = r.eng.Now()
				if s.hasCur {
					busyPauses++
					if s.curRemaining == 0 {
						duePauses++
					}
				}
			case p.paused && !s.paused && !s.down && s.hasCur && pausedAt[i] == r.eng.Now():
				instantCycles++
			case s.down && !p.down && p.paused && p.hasCur:
				stalledCrashes++
			}
			if p.paused && s.paused && (s.hasCur != p.hasCur || s.cur != p.cur) {
				t.Fatalf("server %d's service changed while paused at %v", i, r.eng.Now())
			}
			prev[i] = view(s)
		}
	}
	if duePauses == 0 || instantCycles == 0 || busyPauses < 4 || stalledCrashes != 1 {
		t.Fatalf("scenario not exercised: %d pauses at a due completion, %d same-instant pause/resume, %d busy pauses, %d crashes of a stalled server",
			duePauses, instantCycles, busyPauses, stalledCrashes)
	}
	res := r.collect()
	if r.completions+r.lost != accesses {
		t.Fatalf("%d completed + %d lost != %d accesses", r.completions, r.lost, accesses)
	}
	// Random makes no poll rounds, so every retry is a re-dispatch: each
	// dispatch ends in one completion, one retry or one loss.
	if d := res.Messages.Dispatches; d != r.completions+res.Retries+r.lost {
		t.Errorf("%d dispatches, want %d completions + %d retries + %d lost", d, r.completions, res.Retries, r.lost)
	}
	if r.served != r.completions {
		t.Errorf("servers served %d accesses, %d completed", r.served, r.completions)
	}
	if res.Lost != r.lost {
		t.Errorf("Result.Lost = %d, the run lost %d", res.Lost, r.lost)
	}
}

// TestFinishPanicsOnDoubleCount: an access completed or lost twice
// carries the tally past the total, where the run could never stop, so
// finish fails loudly instead.
func TestFinishPanicsOnDoubleCount(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(1, 0.5)
	r, err := newRunner(Config{Servers: 1, Workload: w, Policy: core.NewRandom(), Accesses: 10})
	if err != nil {
		t.Fatal(err)
	}
	r.completions, r.lost = 10, 1
	defer func() {
		if recover() == nil {
			t.Fatal("finish accepted 11 accounted accesses of 10")
		}
	}()
	r.finish()
}

// TestAutoscalerStopsWithStrandedAccesses: an access stranded on a
// server paused for good drains no events, and the autoscaler tick is
// then the only event left. The tick must not keep the run alive: Run
// returns, and the stranded accesses count as lost.
func TestAutoscalerStopsWithStrandedAccesses(t *testing.T) {
	const accesses = 2000
	cfg := Config{
		Servers: 4, Workload: workload.PoissonExp(0.05).ScaledTo(4, 0.5),
		Policy:   core.NewRandom(),
		Accesses: accesses, Seed: 13,
		Faults: &faults.Schedule{Seed: 5, Events: []faults.NodeEvent{
			{At: time.Second, Node: 0, Kind: faults.Pause},
		}},
		Autoscaler: &membership.AutoscalerConfig{Min: 1, Max: 4},
	}
	done := make(chan *Result, 1)
	go func() {
		res, err := Run(cfg)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res *Result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return within 30 s")
	}
	if res == nil {
		return
	}
	completed := res.Metrics.Value(obs.MetricCompletions)
	if served := res.Metrics.Value(obs.MetricServerServed); served != completed {
		t.Fatalf("served %d, completed %d", served, completed)
	}
	if completed+res.Lost != accesses || res.Lost == 0 {
		t.Fatalf("completed %d + lost %d, want %d with some lost", completed, res.Lost, accesses)
	}
}
