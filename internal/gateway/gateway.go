// Package gateway is the production front door: a multi-tenant HTTP
// gateway that serves REST traffic on top of the prototype's polling
// client (internal/cluster) and transport seam (internal/transport).
//
// The request pipeline is admission → routing → poll → node:
//
//  1. Tenant resolution (X-Tenant header) and per-tenant token-bucket
//     rate limiting — offered load beyond the tenant's contract is
//     shed with 429 before it costs the cluster anything.
//  2. Admission control — a per-tenant cap on concurrently admitted
//     requests (503), so one saturating tenant cannot occupy every
//     backend slot.
//  3. Routing — requests carrying an X-Session key on a sticky tenant
//     are pinned to the node the configured policy first chose;
//     everything else routes through the paper's policy machinery
//     (random polling by default) via cluster.Client.
//
// Sticky routing carries a bounded violation budget (Liang–Borst,
// "Delay versus Stickiness Violation Trade-offs"): when a pinned
// node's last-reported load index reaches the tenant's overload
// threshold, the router may break affinity and fall back to the
// polling policy — but only while the tenant's violation token bucket
// has tokens. With the budget exhausted the session sticks and eats
// the delay; a vanished or unreachable node forces a move regardless
// (and is counted separately).
//
// Every decision increments the obs gateway catalog
// (obs.MetricGateway*), exported on the same /metrics mux the other
// binaries use, with per-tenant request/admission/latency series under
// derived names (obs.TenantMetric).
package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/obs"
	"finelb/internal/transport"
)

// Metrics is the gateway's slice of the obs catalog, resolved once at
// construction so the request path is lock- and map-free.
type Metrics struct {
	Requests          *obs.Counter // requests reaching the front door
	Admitted          *obs.Counter // requests past rate limit and admission
	RejectedRate      *obs.Counter // shed by a tenant's token bucket (429)
	RejectedAdmission *obs.Counter // shed at a tenant's in-flight cap (503)
	UnknownTenant     *obs.Counter // unresolvable X-Tenant (403)
	Errors            *obs.Counter // backend round trips that failed (502)
	Overloads         *obs.Counter // backend refused at a full queue (503)
	StickyHits        *obs.Counter // session requests served by their pinned node
	StickyViolations  *obs.Counter // session re-routes away from the pin (all causes)
	StickyForced      *obs.Counter // the subset forced by a vanished/unreachable node
	StickyDenied      *obs.Counter // overloaded pins kept for want of budget tokens
	Inflight          *obs.Gauge   // admitted requests currently in flight
	Latency           *obs.Histogram
}

// NewMetrics resolves the gateway catalog against reg (a nil registry
// gets a fresh private one).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		Requests:          reg.Counter(obs.MetricGatewayRequests),
		Admitted:          reg.Counter(obs.MetricGatewayAdmitted),
		RejectedRate:      reg.Counter(obs.MetricGatewayRejectedRate),
		RejectedAdmission: reg.Counter(obs.MetricGatewayRejectedAdmission),
		UnknownTenant:     reg.Counter(obs.MetricGatewayUnknownTenant),
		Errors:            reg.Counter(obs.MetricGatewayErrors),
		Overloads:         reg.Counter(obs.MetricGatewayOverloads),
		StickyHits:        reg.Counter(obs.MetricGatewayStickyHits),
		StickyViolations:  reg.Counter(obs.MetricGatewayStickyViolations),
		StickyForced:      reg.Counter(obs.MetricGatewayStickyForced),
		StickyDenied:      reg.Counter(obs.MetricGatewayStickyDenied),
		Inflight:          reg.Gauge(obs.MetricGatewayInflight),
		Latency:           reg.Histogram(obs.MetricGatewayLatencySeconds, obs.LatencyBuckets(), obs.Timing()),
	}
}

// Config configures a Gateway.
type Config struct {
	// Backends are the polling clients requests route through
	// (round-robin per request). At least one is required; several
	// spread poll-round and connection-pool contention, exactly as the
	// paper's experiments run six client nodes.
	Backends []*cluster.Client

	// Tenants is the static tenant set. At least one is required.
	Tenants []TenantConfig

	// DefaultTenant, when non-empty, is assumed for requests without an
	// X-Tenant header; empty makes the header mandatory.
	DefaultTenant string

	// Registry receives the gateway catalog and per-tenant series; nil
	// gets a private registry. The gateway serves it at /metrics.
	Registry *obs.Registry
	// Trace, when non-nil, is served at /trace.
	Trace *obs.Trace
	// Pprof additionally mounts /debug/pprof/ (opt-in, as everywhere).
	Pprof bool

	// Now is the injected clock driving rate limiters, violation
	// budgets, sticky TTLs, and latency measurement (default time.Now).
	// Tests pin it to drive token-bucket boundaries without sleeping.
	Now func() time.Time
}

// maxBody bounds request payloads in bytes: 1 MiB, the cluster
// protocol's own payload cap.
const maxBody = 1 << 20

// Gateway is a running front door. Construct with New, serve with
// Start (any transport.Listener), stop with Close.
type Gateway struct {
	cfg     Config
	now     func() time.Time
	reg     *obs.Registry
	m       *Metrics
	tenants map[string]*tenant
	loads   *loadTable
	rr      atomic.Uint64
	mux     *http.ServeMux

	mu        sync.Mutex
	srv       *http.Server
	ln        transport.Listener
	serveDone chan struct{}
	closed    bool
}

// New builds a gateway. The registry, tenants, and handler mux are
// fully wired on return; Start attaches a listener.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("gateway: no backend clients configured")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("gateway: no tenants configured")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	g := &Gateway{
		cfg:     cfg,
		now:     cfg.Now,
		reg:     reg,
		m:       NewMetrics(reg),
		tenants: make(map[string]*tenant, len(cfg.Tenants)),
		loads:   newLoadTable(),
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("gateway: tenant with empty name")
		}
		if _, dup := g.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("gateway: duplicate tenant %q", tc.Name)
		}
		g.tenants[tc.Name] = newTenant(tc, reg)
	}
	if cfg.DefaultTenant != "" {
		if _, ok := g.tenants[cfg.DefaultTenant]; !ok {
			return nil, fmt.Errorf("gateway: default tenant %q not configured", cfg.DefaultTenant)
		}
	}
	// The gateway's mux is the binaries' standard obs mux (/metrics,
	// /trace, optional /debug/pprof/) with the service routes on top.
	g.mux = obs.NewMux(reg, cfg.Trace, cfg.Pprof)
	g.mux.HandleFunc("/access", g.handleAccess)
	g.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	return g, nil
}

// Registry returns the registry the gateway records into.
func (g *Gateway) Registry() *obs.Registry { return g.reg }

// Metrics returns the gateway's resolved catalog.
func (g *Gateway) Metrics() *Metrics { return g.m }

// ServeHTTP serves the gateway's routes; the gateway is a plain
// http.Handler, so tests can drive it without a listener.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) { g.mux.ServeHTTP(w, r) }

// seamListener adapts a transport.Listener to net.Listener so net/http
// serves identically on real sockets and the mem fabric. Close
// forwards the seam listener's error: shutdown failures on the
// transport seam must surface, not vanish.
type seamListener struct{ ln transport.Listener }

func (s seamListener) Accept() (net.Conn, error) { return s.ln.Accept() }
func (s seamListener) Close() error              { return s.ln.Close() }
func (s seamListener) Addr() net.Addr            { return seamAddr(s.ln.Addr()) }

// seamAddr renders a transport address as a net.Addr.
type seamAddr string

func (a seamAddr) Network() string { return "finelb" }
func (a seamAddr) String() string  { return string(a) }

// tcpListener wraps a real TCP listener in the transport seam so
// cmd/lbgw can honor an explicit -addr (transport.Net.Listen always
// picks a fresh loopback port).
type tcpListener struct{ ln net.Listener }

func (l tcpListener) Accept() (net.Conn, error) { return l.ln.Accept() }
func (l tcpListener) Addr() string              { return l.ln.Addr().String() }
func (l tcpListener) Close() error              { return l.ln.Close() }

// ListenTCP opens a TCP listener on addr behind the transport seam.
func ListenTCP(addr string) (transport.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tcpListener{ln: ln}, nil
}

// Start begins serving on ln in a background goroutine, taking
// ownership of the listener: Close closes it and waits for the serve
// loop to exit. Start can be called once per gateway.
func (g *Gateway) Start(ln transport.Listener) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("gateway: closed")
	}
	if g.srv != nil {
		return fmt.Errorf("gateway: already started")
	}
	g.ln = ln
	g.srv = &http.Server{Handler: g.mux}
	g.serveDone = make(chan struct{})
	srv, done := g.srv, g.serveDone
	go func() {
		defer close(done)
		// Serve returns once Close tears the listener down (the accept
		// loop exits on the listener's net.ErrClosed); the error is the
		// expected shutdown signal, not a condition to report.
		_ = srv.Serve(seamListener{ln: ln})
	}()
	return nil
}

// Addr returns the serving address ("" before Start).
func (g *Gateway) Addr() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ln == nil {
		return ""
	}
	return g.ln.Addr()
}

// Close shuts the gateway down: the transport listener is closed
// (which exits the accept loop), every active connection is torn down,
// and Close blocks until the serve goroutine has returned. The
// listener's Close error is propagated. Close is idempotent.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	srv, done := g.srv, g.serveDone
	g.mu.Unlock()
	if srv == nil {
		return nil // never started
	}
	// srv.Close closes the seam listener — whose Close forwards the
	// transport listener's error — and all active connections.
	err := srv.Close()
	<-done
	return err
}

// backend picks the next routing client round-robin.
func (g *Gateway) backend() *cluster.Client {
	return g.cfg.Backends[g.rr.Add(1)%uint64(len(g.cfg.Backends))]
}

// tenantFor resolves the request's tenant (nil when unknown).
func (g *Gateway) tenantFor(r *http.Request) *tenant {
	name := r.Header.Get("X-Tenant")
	if name == "" {
		name = g.cfg.DefaultTenant
	}
	return g.tenants[name]
}

// Reject cause values carried in the X-Gateway-Reject header, so load
// generators can classify shed traffic without parsing bodies.
const (
	RejectTenant    = "tenant"
	RejectRate      = "rate"
	RejectAdmission = "admission"
	RejectOverload  = "overload"
)

// reject sheds a request with a classification header.
func reject(w http.ResponseWriter, status int, cause string) {
	w.Header().Set("X-Gateway-Reject", cause)
	http.Error(w, "gateway: rejected: "+cause, status)
}

// AccessReply is the JSON body of a successful /access response.
type AccessReply struct {
	Tenant string `json:"tenant"`
	Server int    `json:"server"`
	Load   int    `json:"load"`
	// Sticky reports that the request was served by its session's
	// pinned node; Violation that affinity was broken this request
	// (Forced: because the pin was gone, not by choice).
	Sticky    bool `json:"sticky,omitempty"`
	Violation bool `json:"violation,omitempty"`
	Forced    bool `json:"forced,omitempty"`
}

// routeResult is one routing decision's outcome.
type routeResult struct {
	info      *cluster.AccessInfo
	err       error
	sticky    bool
	violation bool
	forced    bool
}

// handleAccess runs the admission → routing → poll → node pipeline for
// one request.
func (g *Gateway) handleAccess(w http.ResponseWriter, r *http.Request) {
	start := g.now()
	g.m.Requests.Inc()
	t := g.tenantFor(r)
	if t == nil {
		g.m.UnknownTenant.Inc()
		reject(w, http.StatusForbidden, RejectTenant)
		return
	}
	t.m.requests.Inc()
	if !t.limiter.TakeAt(start, 1) {
		g.m.RejectedRate.Inc()
		reject(w, http.StatusTooManyRequests, RejectRate)
		return
	}
	if !t.admit() {
		g.m.RejectedAdmission.Inc()
		reject(w, http.StatusServiceUnavailable, RejectAdmission)
		return
	}
	defer t.release()
	g.m.Admitted.Inc()
	t.m.admitted.Inc()
	g.m.Inflight.Add(1)
	defer g.m.Inflight.Add(-1)

	serviceUs := t.cfg.ServiceUs
	if s := r.URL.Query().Get("service_us"); s != "" {
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			http.Error(w, "gateway: bad service_us: "+err.Error(), http.StatusBadRequest)
			return
		}
		serviceUs = uint32(v)
	}
	var payload []byte
	if r.Body != nil {
		var err error
		payload, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			http.Error(w, "gateway: reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
	}

	backend := g.backend()
	var res routeResult
	if session := r.Header.Get("X-Session"); session != "" && t.cfg.Sticky {
		res = g.routeSticky(t, backend, session, serviceUs, payload)
	} else {
		res.info, res.err = backend.Access(serviceUs, payload)
	}
	if res.err != nil {
		g.m.Errors.Inc()
		http.Error(w, "gateway: backend: "+res.err.Error(), http.StatusBadGateway)
		return
	}
	// Every reply refreshes the router's view of that node's load
	// index — the signal sticky overload decisions run on.
	g.loads.note(res.info.Server, int(res.info.Resp.Load))
	if res.info.Resp.Status == cluster.StatusOverload {
		g.m.Overloads.Inc()
		reject(w, http.StatusServiceUnavailable, RejectOverload)
		return
	}
	elapsed := g.now().Sub(start).Seconds()
	g.m.Latency.Observe(elapsed)
	t.m.latency.Observe(elapsed)
	writeJSON(w, AccessReply{
		Tenant:    t.cfg.Name,
		Server:    res.info.Server,
		Load:      int(res.info.Resp.Load),
		Sticky:    res.sticky,
		Violation: res.violation,
		Forced:    res.forced,
	})
}

// routeSticky serves one session-bound request: to the pinned node
// when healthy and affordable, re-routed by policy when the pin is
// gone (forced) or overloaded with budget tokens available
// (discretionary).
func (g *Gateway) routeSticky(t *tenant, backend *cluster.Client, session string, serviceUs uint32, payload []byte) routeResult {
	now := g.now()
	node, pinned := t.sessions.get(session, now)
	if !pinned {
		// First contact (or expired session): the policy picks, the
		// pick becomes the pin. Not a violation — there was no affinity
		// to violate.
		info, err := backend.Access(serviceUs, payload)
		if err == nil && info.Resp.Status == cluster.StatusOK {
			t.sessions.assign(session, info.Server, now)
		}
		return routeResult{info: info, err: err}
	}
	if !backend.HasEndpoint(node) {
		// The pin left the mapping table (crash, soft-state expiry):
		// the move is forced, budget is not consulted.
		return g.reroute(t, backend, session, serviceUs, payload, true)
	}
	if t.cfg.StickyOverload > 0 && g.loads.load(node) >= t.cfg.StickyOverload {
		// The pin is busy: break affinity for delay if the tenant's
		// violation budget can pay for it. A nil budget means the
		// tenant bought zero discretionary violations.
		if t.budget != nil && t.budget.TakeAt(now, 1) {
			return g.reroute(t, backend, session, serviceUs, payload, false)
		}
		g.m.StickyDenied.Inc()
	}
	info, err := backend.AccessNode(node, serviceUs, payload)
	if err != nil {
		// In the table but unreachable: forced, like a vanished node.
		return g.reroute(t, backend, session, serviceUs, payload, true)
	}
	g.m.StickyHits.Inc()
	return routeResult{info: info, sticky: true}
}

// reroute breaks a session's affinity: route by policy, re-pin to the
// fresh pick, and account the violation.
func (g *Gateway) reroute(t *tenant, backend *cluster.Client, session string, serviceUs uint32, payload []byte, forced bool) routeResult {
	g.m.StickyViolations.Inc()
	if forced {
		g.m.StickyForced.Inc()
	}
	t.sessions.forget(session)
	info, err := backend.Access(serviceUs, payload)
	if err == nil && info.Resp.Status == cluster.StatusOK {
		t.sessions.assign(session, info.Server, g.now())
	}
	return routeResult{info: info, err: err, violation: true, forced: forced}
}

func writeJSON(w http.ResponseWriter, v AccessReply) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // a broken client write is the client's problem
}
