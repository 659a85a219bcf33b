package simcluster

import (
	"finelb/internal/faults"
	"finelb/internal/sim"
	"finelb/internal/stats"
)

// clientFaults is the failure-detector state of a faulted run,
// mirroring the prototype client's serverHealth: per-client per-server
// quarantine fed by consecutive silent polls, link-fault decisions, and
// jittered retry backoff. Run allocates it only when the schedule is
// active; the access machine's hooks on a nil *clientFaults do nothing.
//
// All fault decisions (link loss, backoff jitter) draw from a stream
// derived from the schedule's own seed, so the same Schedule and the
// same Config.Seed replay the exact same run.
type clientFaults struct {
	eng   *sim.Engine
	sched *faults.Schedule
	rng   *stats.RNG // link-loss draws and backoff jitter

	quarUntil [][]sim.Time // per client, per server
	strikes   [][]int
	quarFor   sim.Duration
	fresh     []int // candidates scratch

	// onQuarantine, when set, observes every quarantine decision
	// (metrics/trace hook; it must not mutate fault state).
	onQuarantine func(client, srv int)
}

func newClientFaults(eng *sim.Engine, sched *faults.Schedule, clients, servers int) *clientFaults {
	f := &clientFaults{
		eng:     eng,
		sched:   sched,
		rng:     stats.NewRNG(sched.Seed ^ 0x5eedfa017bad5eed),
		quarFor: sim.FromSeconds(faults.DefaultQuarantineFor.Seconds()),
		fresh:   make([]int, 0, servers),
	}
	f.quarUntil = make([][]sim.Time, clients)
	f.strikes = make([][]int, clients)
	for i := range f.quarUntil {
		f.quarUntil[i] = make([]sim.Time, servers)
		f.strikes[i] = make([]int, servers)
	}
	return f
}

//lint:noalloc
func (f *clientFaults) quarantine(client, srv int) {
	f.strikes[client][srv] = 0
	f.quarUntil[client][srv] = f.eng.Now().Add(f.quarFor)
	if f.onQuarantine != nil {
		f.onQuarantine(client, srv)
	}
}

// noteSilent records one unanswered inquiry; enough consecutive
// silences put the server on the client's quarantine list.
//
//lint:noalloc
func (f *clientFaults) noteSilent(client, srv int) {
	if f == nil {
		return
	}
	f.strikes[client][srv]++
	if f.strikes[client][srv] >= faults.DefaultQuarantineAfter {
		f.quarantine(client, srv)
	}
}

//lint:noalloc
func (f *clientFaults) noteAnswered(client, srv int) {
	if f == nil {
		return
	}
	f.strikes[client][srv] = 0
	f.quarUntil[client][srv] = 0
}

// candidates returns the members this client has not quarantined and
// whether there were any; when it has quarantined them all it returns
// members itself. The result aliases scratch that the next call
// overwrites.
//
//lint:noalloc
func (f *clientFaults) candidates(client int, members []int) ([]int, bool) {
	now := f.eng.Now()
	f.fresh = f.fresh[:0]
	for _, srv := range members {
		if now >= f.quarUntil[client][srv] {
			f.fresh = append(f.fresh, srv)
		}
	}
	if len(f.fresh) == 0 {
		return members, false
	}
	return f.fresh, true
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
	base := faults.Backoff(faults.DefaultRetryBackoff, attempt)
	jitter := 0.5 + f.rng.Float64()
	return sim.FromSeconds(base.Seconds() * jitter)
}
