package substrate

import (
	"reflect"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/obs"
	"finelb/internal/stats"
	"finelb/internal/workload"
)

func TestSimRun(t *testing.T) {
	w := workload.PoissonExp(0.05).ScaledTo(8, 0.6)
	res, err := Sim{}.Run(RunSpec{
		Servers: 8, Workload: w, Policy: core.NewPoll(2),
		Accesses: 5000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Substrate != "sim" {
		t.Errorf("Substrate = %q", res.Substrate)
	}
	if res.MeanResponse <= 0 || res.Responses == 0 {
		t.Errorf("no responses measured: %+v", res)
	}
	if res.P50Response > res.P99Response {
		t.Errorf("p50 %v above p99 %v", res.P50Response, res.P99Response)
	}
	// Poll 2 sends two inquiries per access and, healthy, hears back
	// from both.
	if res.PollRequests == 0 || res.PollResponses != res.PollRequests {
		t.Errorf("poll counters: %d requests, %d responses", res.PollRequests, res.PollResponses)
	}
	if res.Lost != 0 || res.Retries != 0 {
		t.Errorf("healthy run lost=%d retries=%d", res.Lost, res.Retries)
	}

	if res.Metrics == nil {
		t.Fatal("RunResult.Metrics missing")
	}
	if got := res.Metrics.Value("poll_requests_total"); got != res.PollRequests {
		t.Errorf("metric poll_requests_total = %d, counter = %d", got, res.PollRequests)
	}

	// Determinism across the substrate boundary: same spec, same result
	// (Metrics compared by digest — the snapshot pointer itself differs).
	again, err := Sim{}.Run(RunSpec{
		Servers: 8, Workload: w, Policy: core.NewPoll(2),
		Accesses: 5000, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := *again, *res
	a.Metrics, b.Metrics = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same spec diverged:\n%+v\nvs\n%+v", a, b)
	}
	if again.Metrics.Digest() != res.Metrics.Digest() {
		t.Error("same sim spec produced different metric snapshots")
	}
}

func TestSimRunRejectsBadSpec(t *testing.T) {
	_, err := Sim{}.Run(RunSpec{Servers: -1})
	if err == nil {
		t.Fatal("negative server count accepted")
	}
}

func TestProtoRun(t *testing.T) {
	if testing.Short() {
		t.Skip("prototype run opens real sockets and takes seconds")
	}
	w := workload.PoissonExp(0.05).ScaledTo(4, 0.5)
	res, err := Proto{}.Run(RunSpec{
		Servers: 4, Workload: w, Policy: core.NewPoll(2),
		Accesses: 400, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Substrate != "proto" {
		t.Errorf("Substrate = %q", res.Substrate)
	}
	if res.MeanResponse <= 0 || res.Responses == 0 {
		t.Errorf("no responses measured: %+v", res)
	}
	if res.PollRequests == 0 {
		t.Error("polling policy sent no inquiries")
	}
}

func TestProtoNames(t *testing.T) {
	if got := (Proto{}).Name(); got != "proto" {
		t.Errorf("Proto{}.Name() = %q", got)
	}
	if got := (Proto{Transport: "mem"}).Name(); got != "proto-mem" {
		t.Errorf("mem name = %q", got)
	}
}

func TestProtoRejectsUnknownTransport(t *testing.T) {
	w := workload.PoissonExp(0.005).ScaledTo(2, 0.5)
	_, err := Proto{Transport: "carrier-pigeon"}.Run(RunSpec{
		Servers: 2, Workload: w, Policy: core.NewRandom(), Accesses: 10, Seed: 1,
	})
	if err == nil {
		t.Fatal("unknown transport accepted")
	}
}

func TestProtoRejectsSimulatorOnlyFields(t *testing.T) {
	w := workload.PoissonExp(0.005).ScaledTo(2, 0.5)
	for name, spec := range map[string]RunSpec{
		"SpeedFactors":      {SpeedFactors: []float64{1, 2}},
		"PollJitter":        {PollJitter: stats.Exponential{MeanValue: 1e-3}},
		"RecordQueueSeries": {RecordQueueSeries: true},
	} {
		spec.Servers, spec.Workload, spec.Policy, spec.Accesses, spec.Seed = 2, w, core.NewRandom(), 10, 1
		if _, err := (Proto{Transport: "mem"}).Run(spec); err == nil {
			t.Errorf("prototype accepted %s", name)
		}
	}
}

func TestProtoMemRun(t *testing.T) {
	// The in-memory fabric needs no file descriptors, so this runs even
	// in -short mode where the socket-based prototype test is skipped.
	w := workload.PoissonExp(0.005).ScaledTo(2, 0.5)
	res, err := Proto{Transport: "mem"}.Run(RunSpec{
		Servers: 2, Workload: w, Policy: core.NewPoll(2),
		Accesses: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Substrate != "proto-mem" {
		t.Errorf("Substrate = %q", res.Substrate)
	}
	if res.MeanResponse <= 0 || res.Responses == 0 {
		t.Errorf("no responses measured: %+v", res)
	}
	if res.PollRequests == 0 || res.PollResponses == 0 {
		t.Errorf("poll counters: %d requests, %d responses", res.PollRequests, res.PollResponses)
	}
}

// counts projects a RunResult onto its timing-independent message and
// failure counters — the fields two identical in-memory runs must
// reproduce exactly, however the scheduler interleaves them.
func counts(r *RunResult) [6]int64 {
	return [6]int64{r.PollRequests, r.PollResponses, r.PollsDiscarded, r.PollsLate, r.Lost, r.Retries}
}

func TestProtoMemDeterministicUnderFaults(t *testing.T) {
	// Loss 1.0 on every client→server poll link makes every inquiry's
	// fate fixed: each access burns the full poll round plus its retries,
	// discards everything, and falls back to random selection. With
	// quarantine disabled (its expiry is wall-clock driven) the message
	// counts are a pure function of the spec, so two runs must agree
	// bit-for-bit on every counter — the property that makes the mem
	// transport useful for regression-testing fault handling.
	w := workload.PoissonExp(0.005).ScaledTo(2, 0.5)
	spec := RunSpec{
		Servers: 2, Workload: w,
		Policy:   core.NewPollDiscard(2, 5*time.Millisecond),
		Accesses: 100, Seed: 7,
		Faults: &faults.Schedule{
			Seed:  7,
			Links: []faults.LinkRule{{Client: -1, Server: -1, Loss: 1}},
		},
		QuarantineAfter: -1,
	}
	sub := Proto{Transport: "mem"}

	first, err := sub.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sub.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if counts(first) != counts(second) {
		t.Errorf("identical mem runs diverged:\n%+v\nvs\n%+v", counts(first), counts(second))
	}

	// The counts are also predictable in closed form: poll size 2 per
	// round, faults.DefaultPollRetries dry-round retries per access,
	// everything discarded.
	if first.PollResponses != 0 {
		t.Errorf("total loss still produced %d answers", first.PollResponses)
	}
	wantPolled := int64(spec.Accesses) * 2 * (1 + faults.DefaultPollRetries)
	if first.PollRequests != wantPolled || first.PollsDiscarded != wantPolled {
		t.Errorf("polled %d discarded %d, want %d each",
			first.PollRequests, first.PollsDiscarded, wantPolled)
	}
	if first.Lost != 0 {
		t.Errorf("lost %d accesses; the access path carries no faults", first.Lost)
	}
	if want := int64(spec.Accesses) * faults.DefaultPollRetries; first.Retries < want {
		t.Errorf("retries %d, want at least %d dry-round retries", first.Retries, want)
	}
}

// crashAll returns a fault schedule that crashes every one of n servers
// at offset at.
func crashAll(n int, at time.Duration) *faults.Schedule {
	s := &faults.Schedule{}
	for i := 0; i < n; i++ {
		s.Events = append(s.Events, faults.NodeEvent{At: at, Node: i, Kind: faults.Crash})
	}
	return s
}

// substrates returns the three substrates a cross-substrate test runs
// on; the loopback-socket prototype is left out in -short mode.
func substrates() []Substrate {
	subs := []Substrate{Sim{}, Proto{Transport: "mem"}}
	if !testing.Short() {
		subs = append(subs, Proto{})
	}
	return subs
}

func TestCountsMatchMetrics(t *testing.T) {
	// Both servers crash two thirds of the way through, so the run mixes
	// answered accesses with accesses that retry, poll, discard and are
	// finally lost. Every RunResult count must be its run's metric,
	// the lost accesses' retries and polls included, on every substrate.
	spec := RunSpec{
		Servers: 2, Workload: workload.PoissonExp(0.005).ScaledTo(2, 0.5),
		Policy:   core.NewPollDiscard(2, 5*time.Millisecond),
		Accesses: 400, Seed: 3,
		Faults: crashAll(2, 1200*time.Millisecond),
		DirTTL: 100 * time.Millisecond,
	}
	for _, sub := range substrates() {
		t.Run(sub.Name(), func(t *testing.T) {
			res, err := sub.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				metric string
				got    int64
			}{
				{obs.MetricPollRequests, res.PollRequests},
				{obs.MetricPollResponses, res.PollResponses},
				{obs.MetricPollDiscards, res.PollsDiscarded},
				{obs.MetricPollLate, res.PollsLate},
				{obs.MetricLost, res.Lost},
				{obs.MetricRetries, res.Retries},
			} {
				if want := res.Metrics.Value(c.metric); c.got != want {
					t.Errorf("%s: RunResult %d, metric %d", c.metric, c.got, want)
				}
			}
			if res.Lost == 0 || res.Retries == 0 {
				t.Errorf("crashing every server lost %d accesses after %d retries; want both > 0", res.Lost, res.Retries)
			}
		})
	}
}

func TestRunWithNoResponse(t *testing.T) {
	// Every server is down from the start, so no access is answered and
	// the response summary stays empty: the result reports zero
	// percentiles rather than panicking on them.
	spec := RunSpec{
		Servers: 2, Workload: workload.PoissonExp(0.005).ScaledTo(2, 0.5),
		Policy:   core.NewPoll(2),
		Accesses: 50, Seed: 4,
		Faults: crashAll(2, 0),
	}
	for _, sub := range substrates() {
		t.Run(sub.Name(), func(t *testing.T) {
			res, err := sub.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Responses != 0 || res.P99Response != 0 {
				t.Errorf("responses %d, p99 %v; want none", res.Responses, res.P99Response)
			}
			if res.Lost == 0 {
				t.Error("no access lost with every server crashed")
			}
		})
	}
}

func TestLinkDropsCountedAsDroppedInquiries(t *testing.T) {
	// Under total link loss no inquiry reaches a server, and every
	// substrate counts each lost one where the simulator always has: in
	// server_inquiries_dropped_total, one per poll request.
	_, spec := goldenMemSpec()
	for _, sub := range substrates() {
		t.Run(sub.Name(), func(t *testing.T) {
			res, err := sub.Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			req := res.Metrics.Value(obs.MetricPollRequests)
			if dropped := res.Metrics.Value(obs.MetricInquiriesDropped); req == 0 || dropped != req {
				t.Errorf("%d poll requests, %d inquiries dropped; want equal and nonzero", req, dropped)
			}
		})
	}
}
