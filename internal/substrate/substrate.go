// Package substrate abstracts "a way to execute one load-balancing
// run" so experiment drivers can be written once and executed on both
// of the repository's execution substrates: the discrete-event
// simulator (internal/simcluster) and the real-socket prototype
// (internal/cluster).
//
// The paper's central comparison (simulation Figure 4 against prototype
// Figure 6) only means something because the same policy code runs on
// both substrates; this package makes that symmetry explicit. A RunSpec
// is the substrate-independent description of one run, and a RunResult
// carries the measurements both substrates share — response-time
// summary, polling cost, message counts, losses, retries — so a driver
// parameterized by Substrate produces directly comparable cells.
package substrate

import (
	"fmt"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
	"finelb/internal/simcluster"
	"finelb/internal/stats"
	"finelb/internal/transport"
	"finelb/internal/workload"
)

// RunSpec describes one run in substrate-independent terms.
type RunSpec struct {
	Servers int
	Clients int // decision-making client nodes (default 6, as in the paper)
	// Workload must already be scaled (workload.Workload.ScaledTo) to
	// the target per-server load for Servers servers.
	Workload workload.Workload
	Policy   core.Policy

	// Accesses is the number of service accesses to issue.
	Accesses int
	// Seed drives every random stream of the run.
	Seed uint64

	// Faults, when non-nil and active, injects the schedule into the
	// run on either substrate (see internal/faults).
	Faults *faults.Schedule
	// Membership, when active, replays the elastic-membership schedule
	// (internal/membership) on either substrate: the simulator on its
	// event clock, the prototype on the scaled wall clock. Inert
	// schedules leave both substrates bit-identical to a fixed pool.
	Membership *membership.Schedule
	// Autoscaler, when active, runs the shared load-threshold autoscaler
	// on either substrate.
	Autoscaler *membership.AutoscalerConfig
	// SpeedFactors gives each server a heterogeneous work rate on the
	// simulator (see simcluster.Config.SpeedFactors). The prototype
	// emulates service times by sleeping, so it cannot honor factors
	// and rejects a spec that sets them.
	SpeedFactors []float64
	// PollJitter and RecordQueueSeries forward the simulator's
	// simcluster.Config fields of the same names: an extra sampled
	// delay (seconds) on every poll round trip, and retention of each
	// server's queue-length series. The prototype measures real poll
	// latency and keeps no series, so it rejects a spec that sets them.
	PollJitter        stats.Dist
	RecordQueueSeries bool
	// DirTTL overrides the prototype directory's soft-state TTL (fault
	// runs use a short TTL so crashed nodes expire quickly). The
	// simulator has no directory and ignores it.
	DirTTL time.Duration
	// QuarantineAfter tunes the prototype clients' consecutive-silence
	// quarantine (zero keeps the default; negative disables it, which
	// deterministic in-memory runs need because quarantine expiry is
	// wall-clock driven). The simulator ignores it.
	QuarantineAfter int
}

// RunResult carries the measurements common to both substrates, in
// seconds where a unit applies.
type RunResult struct {
	Substrate string // "sim" or "proto"

	MeanResponse float64
	P50Response  float64
	P95Response  float64
	P99Response  float64
	Responses    int64 // post-warmup accesses measured

	// MeanPollTime is the mean per-access time spent acquiring load
	// information (zero for non-polling policies).
	MeanPollTime float64

	// PollRequests / PollResponses / PollsDiscarded count the load
	// inquiries sent, the answers used, and the answers abandoned.
	PollRequests   int64
	PollResponses  int64
	PollsDiscarded int64
	// PollsLate counts the subset of PollsDiscarded whose answer
	// eventually arrived after the discard deadline (§3.2's slow polls,
	// as opposed to datagrams lost outright).
	PollsLate int64

	// Lost counts accesses that never produced a response despite
	// retries; Retries counts poll re-rounds plus access re-attempts.
	// Every count above is the run's value of the matching metric
	// (poll_requests_total, poll_responses_total, poll_discards_total,
	// poll_late_total, lb_lost_total, lb_retries_total), warmup
	// included.
	Lost    int64
	Retries int64

	// EventsFired counts discrete events the simulator executed for the
	// run — the unit the simscale throughput benchmark is denominated
	// in. Zero on the prototype substrate, which has no event loop.
	EventsFired uint64
	// QueueSeries (when RunSpec.RecordQueueSeries is set), SimDuration
	// (simulated seconds) and LoadMessages (simcluster.MessageCount.Total,
	// the §2.4 load-information message count) are simulator-only.
	QueueSeries  []*simcluster.QSeries
	SimDuration  float64
	LoadMessages int64
	// PollRTT summarizes individual load-inquiry round trips in seconds
	// (the §3.2 poll profile); prototype only.
	PollRTT *stats.Summary

	// Elastic membership (zero churn on fixed-pool runs, where
	// FinalPool = PeakPool = Servers): pool transitions applied and the
	// routable pool size at the end of the run and at its peak.
	Joins, Drains, Leaves int64
	FinalPool, PeakPool   int

	// Metrics is the run's end-of-run snapshot of the shared
	// obs.RunMetrics catalog. Both substrates emit the same metric name
	// set, which is what makes their snapshots directly comparable.
	Metrics *obs.Snapshot
}

// Substrate executes runs. Implementations must be safe to reuse
// across runs (they carry no per-run state).
type Substrate interface {
	// Name identifies the substrate in tables and logs ("sim", "proto").
	Name() string
	// Run executes one run described by spec.
	Run(spec RunSpec) (*RunResult, error)
}

// Sim is the discrete-event simulator substrate (simcluster.Run):
// deterministic, fast, with the paper's measured network constants.
type Sim struct{}

// Name implements Substrate.
func (Sim) Name() string { return "sim" }

// Run implements Substrate.
func (Sim) Run(spec RunSpec) (*RunResult, error) {
	res, err := simcluster.Run(simcluster.Config{
		Servers:           spec.Servers,
		Clients:           spec.Clients,
		Workload:          spec.Workload,
		Policy:            spec.Policy,
		Accesses:          spec.Accesses,
		Seed:              spec.Seed,
		Faults:            spec.Faults,
		Membership:        spec.Membership,
		Autoscaler:        spec.Autoscaler,
		SpeedFactors:      spec.SpeedFactors,
		PollJitter:        spec.PollJitter,
		RecordQueueSeries: spec.RecordQueueSeries,
	})
	if err != nil {
		return nil, fmt.Errorf("substrate sim: %w", err)
	}
	r := result("sim", res.Response, res.PollTime, res.Metrics)
	r.EventsFired = res.EventsFired
	r.QueueSeries = res.QueueSeries
	r.SimDuration = res.SimDuration
	r.LoadMessages = res.Messages.Total()
	r.Joins, r.Drains, r.Leaves = res.Joins, res.Drains, res.Leaves
	r.FinalPool, r.PeakPool = res.FinalPool, res.PeakPool
	return r, nil
}

// Proto is the real-message prototype substrate (cluster.RunExperiment):
// an in-process Neptune-lite cluster exchanging real protocol messages,
// with the §3.2 contention model active. The zero value runs over
// loopback UDP/TCP exactly as before the transport seam existed.
type Proto struct {
	// Transport selects the messaging substrate: "" or "net" for real
	// loopback sockets, "mem" for the deterministic in-memory fabric
	// (transport.Mem, seeded from each spec's Seed).
	Transport string
}

// Name implements Substrate.
func (p Proto) Name() string {
	if p.Transport == "mem" {
		return "proto-mem"
	}
	return "proto"
}

// Run implements Substrate.
func (p Proto) Run(spec RunSpec) (*RunResult, error) {
	switch {
	case len(spec.SpeedFactors) > 0:
		return nil, fmt.Errorf("substrate %s: SpeedFactors are simulator-only (the prototype emulates service time, not server speed)", p.Name())
	case spec.PollJitter != nil || spec.RecordQueueSeries:
		return nil, fmt.Errorf("substrate %s: PollJitter and RecordQueueSeries are simulator-only (the prototype measures real poll latency)", p.Name())
	}
	tr, err := transport.ByName(p.Transport, spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("substrate %s: %w", p.Name(), err)
	}
	res, err := cluster.RunExperiment(cluster.ExperimentConfig{
		Servers:         spec.Servers,
		Clients:         spec.Clients,
		Workload:        spec.Workload,
		Policy:          spec.Policy,
		Transport:       tr,
		Accesses:        spec.Accesses,
		Seed:            spec.Seed,
		Faults:          spec.Faults,
		Membership:      spec.Membership,
		Autoscaler:      spec.Autoscaler,
		DirTTL:          spec.DirTTL,
		QuarantineAfter: spec.QuarantineAfter,
	})
	if err != nil {
		return nil, fmt.Errorf("substrate %s: %w", p.Name(), err)
	}
	r := result(p.Name(), res.Response, res.PollTime, res.Metrics)
	r.PollRTT = res.PollRTT
	r.Joins, r.Drains, r.Leaves = res.Joins, res.Drains, res.Leaves
	r.FinalPool, r.PeakPool = res.FinalPool, res.PeakPool
	return r, nil
}

// result builds the part of a RunResult both substrates fill the same
// way. Every count is read from the run's metric snapshot, so a count
// means the same thing on either substrate. The response percentiles
// stay zero when no response was measured (every post-warmup access
// lost).
func result(name string, response, pollTime *stats.Summary, m *obs.Snapshot) *RunResult {
	r := &RunResult{
		Substrate:      name,
		MeanResponse:   response.Mean(),
		Responses:      response.N(),
		MeanPollTime:   pollTime.Mean(),
		PollRequests:   m.Value(obs.MetricPollRequests),
		PollResponses:  m.Value(obs.MetricPollResponses),
		PollsDiscarded: m.Value(obs.MetricPollDiscards),
		PollsLate:      m.Value(obs.MetricPollLate),
		Lost:           m.Value(obs.MetricLost),
		Retries:        m.Value(obs.MetricRetries),
		Metrics:        m,
	}
	if r.Responses > 0 {
		r.P50Response = response.Percentile(0.50)
		r.P95Response = response.Percentile(0.95)
		r.P99Response = response.Percentile(0.99)
	}
	return r
}
