package simcluster

import (
	"finelb/internal/faults"
	"finelb/internal/sim"
	"finelb/internal/stats"
)

// clientFaults is the client-side fault state of a faulted run: one
// faults.Detector per client (the failure detector the prototype
// client runs too), link-fault decisions, and jittered retry backoff.
// Run allocates it only when the schedule is active; with none, the
// access machine sees nil detectors and no link faults.
//
// All fault decisions (link loss, backoff jitter) draw from a stream
// derived from the schedule's own seed, so the same Schedule and the
// same Config.Seed replay the exact same run.
type clientFaults struct {
	sched *faults.Schedule
	rng   *stats.RNG         // link-loss draws and backoff jitter
	det   []*faults.Detector // per client
	fresh []int              // candidates scratch
}

func newClientFaults(sched *faults.Schedule, clients, servers int) *clientFaults {
	f := &clientFaults{
		sched: sched,
		rng:   stats.NewRNG(sched.Seed ^ 0x5eedfa017bad5eed),
		det:   make([]*faults.Detector, clients),
		fresh: make([]int, 0, servers),
	}
	for i := range f.det {
		f.det[i] = faults.NewDetector(faults.DefaultQuarantineAfter, faults.DefaultQuarantineFor, servers)
	}
	return f
}

// pollFault decides the fate of one inquiry on the client→srv link.
//
//lint:noalloc
func (f *clientFaults) pollFault(client, srv int) (drop bool, delay sim.Duration) {
	if f == nil {
		return false, 0
	}
	rule, ok := f.sched.Rule(client, srv)
	if !ok {
		return false, 0
	}
	if rule.Loss > 0 && f.rng.Float64() < rule.Loss {
		return true, 0
	}
	return false, sim.FromSeconds(rule.Latency.Seconds())
}

// backoff returns the jittered wait before retry number attempt.
//
//lint:noalloc
func (f *clientFaults) backoff(attempt int) sim.Duration {
	base := faults.Backoff(attempt)
	jitter := 0.5 + f.rng.Float64()
	return sim.FromSeconds(base.Seconds() * jitter)
}
