// Package simcluster wires the load-balancing policies of internal/core
// into the discrete-event engine of internal/sim, reproducing the
// paper's simulation model (§2): each server has a non-preemptive
// processing unit and a FIFO service queue; the network latency of
// sending a request and receiving a response is half a measured TCP
// round trip; load inquiries cost a measured UDP round trip; broadcast
// intervals are jittered uniformly over [0.5, 1.5] x mean.
//
// It powers Figure 2 (load-index inaccuracy), Figure 3 (broadcast
// frequency), Figure 4 (poll size), and the ablations A1-A3.
//
// The hot path is built to scale to O(10k) servers and O(10M) accesses
// (DESIGN.md §10): server state lives in one value slice, in-flight
// accesses and poll rounds are id-addressed slab records that events
// name by id to callbacks bound once per run (zero steady-state
// allocation on the dispatch path), arrivals are scheduled
// lazily against a reserved sequence band (the pending-event heap
// holds the in-flight population, not the whole trace), and the IDEAL
// and least-connections decisions come from an indexed min-heap
// (core.LoadIndex) instead of an O(n) scan.
package simcluster

import (
	"fmt"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
	"finelb/internal/sim"
	"finelb/internal/stats"
	"finelb/internal/workload"
)

// Paper-measured network constants (DESIGN.md §4).
const (
	// DefaultServiceNetDelay is the one-way request or response latency:
	// half of the 516 us that the paper charges for a full
	// send-request/receive-response exchange.
	DefaultServiceNetDelay = 258 * sim.Microsecond
	// DefaultPollRTT is the measured UDP load-inquiry round trip.
	DefaultPollRTT = 290 * sim.Microsecond
	// DefaultBroadcastDelay is the propagation delay of one load
	// broadcast (half the UDP round trip).
	DefaultBroadcastDelay = 145 * sim.Microsecond
)

// Config describes one simulated run.
type Config struct {
	Servers  int
	Clients  int               // decision-making client nodes (default 6)
	Workload workload.Workload // arrival dist must already be scaled (ScaledTo)
	Policy   core.Policy

	// SpeedFactors, when non-nil, makes the cluster heterogeneous:
	// server i executes work at SpeedFactors[i] times the base rate
	// (a demand of d seconds takes d/SpeedFactors[i]). Must have length
	// Servers; nil means a homogeneous cluster, as in the paper.
	SpeedFactors []float64

	// PollJitter, when non-nil, adds a sampled extra delay (seconds) to
	// each poll's round trip. The paper's simulation uses constant poll
	// cost (nil); the jitter exists to exercise the discard logic in
	// simulation tests.
	PollJitter stats.Dist

	// Faults, when non-nil, injects the schedule into the run: node
	// events play out on the simulated clock and link faults apply to
	// load inquiries. Fault handling (quarantine, backoff, bounded
	// retries) mirrors the prototype client's, with the shared defaults
	// from internal/faults. Unsupported with the Broadcast policy.
	Faults *faults.Schedule

	// Membership, when active, makes the server set elastic: Join/
	// Drain/Leave events play out on the simulated clock, growing the
	// pool past Servers (up to the schedule's MaxNode) or gracefully
	// shrinking it. It combines with Faults: a crashed server never
	// rejoins. An inert schedule leaves the run bit-identical to a
	// fixed pool. Unsupported with the Broadcast policy.
	Membership *membership.Schedule
	// Autoscaler, when active, samples the routable pool's load every
	// policy interval on the simulated clock and applies the resulting
	// Join/Drain events itself — the closed-loop counterpart of a
	// precomputed Membership schedule. Both may be set; the schedule
	// seeds churn and the autoscaler reacts on top.
	Autoscaler *membership.AutoscalerConfig

	// Accesses is the number of service accesses to generate (default 100000).
	Accesses int
	// WarmupFrac is the fraction of initial accesses excluded from
	// statistics (default 0.1).
	WarmupFrac float64
	// Seed makes the run reproducible.
	Seed uint64
	// RecordQueueSeries retains each server's queue-length time series
	// (Figure 2 needs it; it costs memory on long runs).
	RecordQueueSeries bool

	// Metrics, when non-nil, is the registry the run records the shared
	// obs.RunMetrics catalog into; nil records into a private registry.
	// Either way Result.Metrics carries the end-of-run snapshot.
	// Instrumentation schedules no events and draws no randomness, so it
	// cannot perturb a run (the golden-seed harness pins this).
	Metrics *obs.Registry
	// Trace, when non-nil, receives structured protocol events
	// (dispatches, discards, quarantines, server faults) on the
	// simulated clock. See obs.Event for the schema.
	Trace *obs.Trace
}

func (c Config) withDefaults() (Config, error) {
	if c.Servers <= 0 {
		return c, fmt.Errorf("simcluster: Servers = %d", c.Servers)
	}
	if c.Clients == 0 {
		c.Clients = 6
	}
	if c.Clients < 0 {
		return c, fmt.Errorf("simcluster: Clients = %d", c.Clients)
	}
	if err := c.Policy.Validate(); err != nil {
		return c, err
	}
	if c.Accesses == 0 {
		c.Accesses = 100000
	}
	if c.Accesses < 0 {
		return c, fmt.Errorf("simcluster: Accesses = %d", c.Accesses)
	}
	if c.WarmupFrac == 0 {
		c.WarmupFrac = 0.1
	}
	if c.WarmupFrac < 0 || c.WarmupFrac >= 1 {
		return c, fmt.Errorf("simcluster: WarmupFrac = %v", c.WarmupFrac)
	}
	if c.Workload.Arrival == nil || c.Workload.Service == nil {
		return c, fmt.Errorf("simcluster: incomplete workload")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return c, err
		}
		if c.Policy.Kind == core.Broadcast {
			// Broadcast agents run on Every() timers that never drain, so
			// a run with lost accesses would never terminate.
			return c, fmt.Errorf("simcluster: Faults is unsupported with the Broadcast policy")
		}
	}
	if err := membership.Check(c.Servers, c.Membership, c.Autoscaler); err != nil {
		return c, err
	}
	if c.elastic() && c.Policy.Kind == core.Broadcast {
		// Broadcast tables are sized to the fixed pool and its agents
		// run on Every() timers; elastic pools are a polling/index-policy
		// feature.
		return c, fmt.Errorf("simcluster: Membership is unsupported with the Broadcast policy")
	}
	if c.SpeedFactors != nil {
		// An elastic run may carry extra factors for joinable ids past
		// the initial pool; ids beyond the slice run at speed 1.
		if len(c.SpeedFactors) != c.Servers && !(c.elastic() && len(c.SpeedFactors) > c.Servers) {
			return c, fmt.Errorf("simcluster: %d speed factors for %d servers", len(c.SpeedFactors), c.Servers)
		}
		for i, f := range c.SpeedFactors {
			if f <= 0 {
				return c, fmt.Errorf("simcluster: speed factor %d = %v", i, f)
			}
		}
	}
	return c, nil
}

// elastic reports whether the run's server set can change mid-run.
func (c Config) elastic() bool {
	return c.Membership.Active() || c.Autoscaler.Active()
}

// maxPool returns the largest server id space the run can reach.
// Fixed-pool runs return Servers, so every capacity sized from maxPool
// is exactly what a fixed pool needs.
func (c Config) maxPool() int {
	return membership.MaxPool(c.Servers, c.Membership, c.Autoscaler)
}

// MessageCount tallies the load-information traffic of a run,
// supporting the paper's §2.4 scalability argument.
type MessageCount struct {
	PollRequests        int64 // client -> server load inquiries
	PollResponses       int64 // server -> client answers used
	PollsDiscarded      int64 // answers abandoned by the discard deadline
	Broadcasts          int64 // server load announcements
	BroadcastDeliveries int64 // per-client deliveries processed
	Dispatches          int64 // service requests sent
}

// Total returns all load-information messages (excluding the service
// dispatches themselves): what §2.4 counts when comparing policies.
func (m MessageCount) Total() int64 {
	return m.PollRequests + m.PollResponses + m.Broadcasts + m.BroadcastDeliveries
}

// Result reports the measured behaviour of one run.
type Result struct {
	Config Config

	// Response summarizes access response times in seconds (poll time
	// included, as in the paper), over post-warmup accesses.
	Response *stats.Summary
	// PollTime summarizes per-access polling durations in seconds
	// (zero observations for non-polling policies).
	PollTime *stats.Summary
	// Messages tallies load-information traffic.
	Messages MessageCount
	// ServerUtilization is each server's busy fraction.
	ServerUtilization []float64
	// MeanQueueLength is the time-averaged queue length (load index)
	// across servers.
	MeanQueueLength float64
	// QueueSeries holds per-server queue-length series when
	// Config.RecordQueueSeries is set.
	QueueSeries []*QSeries
	// SimDuration is the simulated run length in seconds.
	SimDuration float64
	// EventsFired is the number of discrete events the engine executed,
	// the denominator of the events/sec throughput metric the simscale
	// benchmark tracks.
	EventsFired uint64

	// Lost counts accesses that never completed despite retries (always
	// zero without Faults).
	Lost int64
	// Retries counts poll re-rounds plus access re-dispatches after
	// failures (always zero without Faults).
	Retries int64

	// Membership churn (elastic runs; a fixed pool reports zero churn
	// with FinalPool = PeakPool = Servers).
	Joins  int64 // servers that joined or re-joined the routable pool
	Drains int64 // servers withdrawn from routing (still serving)
	Leaves int64 // drained servers retired from the run
	// FinalPool and PeakPool are the routable pool size at the end of
	// the run and its high-water mark.
	FinalPool int
	PeakPool  int

	// Metrics is the end-of-run snapshot of the obs.RunMetrics catalog
	// (taken after the engine drains, so cross-metric invariants hold).
	Metrics *obs.Snapshot
}

// MeanResponse is a convenience accessor: the run's mean response time
// in seconds.
func (r *Result) MeanResponse() float64 { return r.Response.Mean() }

// MeanUtilization returns the average server busy fraction.
func (r *Result) MeanUtilization() float64 {
	var t float64
	for _, u := range r.ServerUtilization {
		t += u
	}
	return t / float64(len(r.ServerUtilization))
}
