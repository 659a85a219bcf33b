package obs

// RunMetrics is the shared metric catalog of one load-balancing run.
// Both execution substrates — the discrete-event simulator
// (internal/simcluster) and the prototype (internal/cluster) — resolve
// this exact name set against their run's registry and update it at the
// equivalent protocol points, which is what makes simulator and
// prototype metric snapshots directly comparable (and lets one test
// assert the name sets are identical). The catalog is documented in
// DESIGN.md §7.
//
// Counters tagged Timing, every histogram, and gauge high-water marks
// carry wall-clock-dependent values; everything else is a pure function
// of the run's seed and spec on deterministic substrates (the simulator
// always; the prototype on the in-memory transport under scenarios that
// pin every message's fate).
type RunMetrics struct {
	// Access lifecycle.
	Dispatches  *Counter // service requests sent (including re-dispatch attempts)
	Completions *Counter // accesses completed successfully
	Lost        *Counter // accesses that never produced a response despite retries
	Retries     *Counter // poll re-rounds plus access re-attempts

	// Random-polling protocol.
	PollRequests  *Counter // client → server load inquiries sent
	PollResponses *Counter // answers used by a decision
	PollDiscards  *Counter // inquiries abandoned at the discard deadline
	PollLate      *Counter // discarded inquiries whose answer arrived late (§3.2)
	Quarantines   *Counter // servers quarantined by a client failure detector

	// Server side.
	ServerActive     *Gauge   // queued + in-service accesses across all servers
	WorkersBusy      *Gauge   // busy processing units across all servers
	ServerServed     *Counter // requests completed by servers
	ServerOverloads  *Counter // requests refused at a full queue (prototype only)
	InquiriesServed  *Counter // load inquiries answered by servers
	InquiriesDropped *Counter // inquiries dropped (pause, injection, lossy link)
	SlowAnswers      *Counter // inquiries answered through the contention-model slow path

	// Latency shapes (wall clock on the prototype, simulated seconds on
	// the simulator).
	ResponseSeconds *Histogram // per-access response time
	PollWaitSeconds *Histogram // per-access time spent acquiring load information
	PollRTTSeconds  *Histogram // individual inquiry round trips
}

// Run metric names (the catalog).
const (
	MetricDispatches       = "lb_dispatches_total"
	MetricCompletions      = "lb_completions_total"
	MetricLost             = "lb_lost_total"
	MetricRetries          = "lb_retries_total"
	MetricPollRequests     = "poll_requests_total"
	MetricPollResponses    = "poll_responses_total"
	MetricPollDiscards     = "poll_discards_total"
	MetricPollLate         = "poll_late_total"
	MetricQuarantines      = "quarantines_total"
	MetricServerActive     = "server_active"
	MetricWorkersBusy      = "server_workers_busy"
	MetricServerServed     = "server_served_total"
	MetricServerOverloads  = "server_overloads_total"
	MetricInquiriesServed  = "server_inquiries_total"
	MetricInquiriesDropped = "server_inquiries_dropped_total"
	MetricSlowAnswers      = "server_slow_answers_total"
	MetricResponseSeconds  = "response_seconds"
	MetricPollWaitSeconds  = "poll_wait_seconds"
	MetricPollRTTSeconds   = "poll_rtt_seconds"
)

// Component metric names outside the per-run catalog. Every metric
// name in the repository is declared in this package — finelbvet's
// obscatalog analyzer rejects registration calls whose name is not an
// obs constant — so even one-off component metrics (the IDEAL
// manager's protocol counters, in the manager's own registry) are
// spelled here.
const (
	MetricManagerAcquires    = "manager_acquires"
	MetricManagerReleases    = "manager_releases"
	MetricManagerOutstanding = "manager_outstanding"
)

// Membership metric names: the elastic-membership seam
// (internal/membership) as replayed by either substrate. These are NOT
// part of the per-run RunMetrics catalog: they register only when a run
// actually has an active membership schedule or autoscaler, so
// fixed-pool runs keep their golden metric digests bit-identical.
const (
	MetricMembershipJoins  = "membership_joins_total"
	MetricMembershipDrains = "membership_drains_total"
	MetricMembershipLeaves = "membership_leaves_total"
	MetricMembershipPool   = "membership_pool_size"
	MetricAutoscaleUps     = "autoscaler_scale_ups_total"
	MetricAutoscaleDowns   = "autoscaler_scale_downs_total"
)

// MembershipMetrics instruments one elastic run: pool transitions, the
// routable pool size (whose high-water mark is the run's peak pool),
// and autoscaler actions.
type MembershipMetrics struct {
	Joins      *Counter // servers that joined (or re-joined) the routable pool
	Drains     *Counter // servers withdrawn from routing but still serving
	Leaves     *Counter // drained servers retired from the run
	Pool       *Gauge   // current routable pool size (High() = peak)
	ScaleUps   *Counter // autoscaler grow actions applied
	ScaleDowns *Counter // autoscaler shrink actions applied
}

// NewMembershipMetrics resolves the membership catalog against reg.
// Call it only for runs with elastic membership enabled — registration
// adds names to the registry and therefore to snapshot digests.
func NewMembershipMetrics(reg *Registry) *MembershipMetrics {
	if reg == nil {
		reg = NewRegistry()
	}
	return &MembershipMetrics{
		Joins:      reg.Counter(MetricMembershipJoins),
		Drains:     reg.Counter(MetricMembershipDrains),
		Leaves:     reg.Counter(MetricMembershipLeaves),
		Pool:       reg.Gauge(MetricMembershipPool),
		ScaleUps:   reg.Counter(MetricAutoscaleUps),
		ScaleDowns: reg.Counter(MetricAutoscaleDowns),
	}
}

// Gateway metric names: the HTTP front door's request pipeline
// (internal/gateway, served by cmd/lbgw). Admission and stickiness
// counters are pure functions of the request stream and tenant
// configuration; latency histograms and the in-flight high-water mark
// are wall-clock shaped. Documented in DESIGN.md §9.
const (
	MetricGatewayRequests          = "gateway_requests_total"
	MetricGatewayAdmitted          = "gateway_admitted_total"
	MetricGatewayRejectedRate      = "gateway_rejected_rate_total"
	MetricGatewayRejectedAdmission = "gateway_rejected_admission_total"
	MetricGatewayUnknownTenant     = "gateway_unknown_tenant_total"
	MetricGatewayErrors            = "gateway_errors_total"
	MetricGatewayOverloads         = "gateway_overloads_total"
	MetricGatewayStickyHits        = "gateway_sticky_hits_total"
	MetricGatewayStickyViolations  = "gateway_sticky_violations_total"
	MetricGatewayStickyForced      = "gateway_sticky_forced_total"
	MetricGatewayStickyDenied      = "gateway_sticky_denied_total"
	MetricGatewayInflight          = "gateway_inflight"
	MetricGatewayLatencySeconds    = "gateway_latency_seconds"
)

// TenantMetric derives the per-tenant variant of a gateway catalog
// name. The base must be one of the MetricGateway* constants; the
// derived name carries the tenant as a label-style suffix so snapshots
// sort tenant series next to their aggregate. Derived names are
// dynamic by construction, which is exactly the registry-plumbing case
// finelbvet's obscatalog analyzer exempts: the spelled part stays a
// catalog constant.
func TenantMetric(base, tenant string) string {
	return base + `{tenant="` + tenant + `"}`
}

// NewRunMetrics resolves the full catalog against reg (registering
// anything missing). A nil registry gets a fresh private one, so
// callers can instrument unconditionally and export only when asked.
func NewRunMetrics(reg *Registry) *RunMetrics {
	if reg == nil {
		reg = NewRegistry()
	}
	lat := LatencyBuckets()
	return &RunMetrics{
		Dispatches:  reg.Counter(MetricDispatches),
		Completions: reg.Counter(MetricCompletions),
		Lost:        reg.Counter(MetricLost),
		Retries:     reg.Counter(MetricRetries),

		PollRequests:  reg.Counter(MetricPollRequests),
		PollResponses: reg.Counter(MetricPollResponses),
		PollDiscards:  reg.Counter(MetricPollDiscards),
		PollLate:      reg.Counter(MetricPollLate),
		Quarantines:   reg.Counter(MetricQuarantines),

		ServerActive:     reg.Gauge(MetricServerActive),
		WorkersBusy:      reg.Gauge(MetricWorkersBusy),
		ServerServed:     reg.Counter(MetricServerServed),
		ServerOverloads:  reg.Counter(MetricServerOverloads),
		InquiriesServed:  reg.Counter(MetricInquiriesServed),
		InquiriesDropped: reg.Counter(MetricInquiriesDropped),
		SlowAnswers:      reg.Counter(MetricSlowAnswers),

		ResponseSeconds: reg.Histogram(MetricResponseSeconds, lat, Timing()),
		PollWaitSeconds: reg.Histogram(MetricPollWaitSeconds, lat, Timing()),
		PollRTTSeconds:  reg.Histogram(MetricPollRTTSeconds, lat, Timing()),
	}
}
