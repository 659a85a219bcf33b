package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/gateway"
	"finelb/internal/stats"
	"finelb/internal/transport"
)

const (
	// sessionsPerCaller is the fixed X-Session key set each caller of the
	// sticky tenant draws from. Callers use disjoint keys, so each
	// session's pin is set and observed by one caller in order.
	sessionsPerCaller = 8
	// accessIDHeader carries the benchmark's access id to the traced
	// handler so serve spans join their caller's span.
	accessIDHeader = "X-Bench-Access"
)

// gwEnv is one booted gateway_mem_mixed environment.
type gwEnv struct {
	fabric *transport.Mem
	cl     *cluster.Cluster
	gw     *gateway.Gateway
	client *http.Client
	url    string
}

func (e *gwEnv) close() {
	e.gw.Close()
	e.client.CloseIdleConnections()
	e.cl.Close()
}

func bootGateway(seed uint64) (*gwEnv, error) {
	fabric := transport.NewMem(transport.MemConfig{Seed: seed})
	cl, err := startCluster(fabric, seed)
	if err != nil {
		return nil, err
	}
	// Limits sit far above what two closed-loop callers can offer, so
	// admission runs on every request and never sheds.
	g, err := gateway.New(gateway.Config{
		Backends: cl.Clients,
		Tenants: []gateway.TenantConfig{
			{Name: "web", RateLimit: 1e7, Burst: 1e6, MaxInflight: 1024},
			{Name: "app", RateLimit: 1e7, Burst: 1e6, MaxInflight: 1024, Sticky: true},
		},
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	ln, err := fabric.Listen()
	if err == nil {
		err = g.Start(ln)
	}
	if err != nil {
		g.Close()
		cl.Close()
		return nil, err
	}
	return &gwEnv{
		fabric: fabric,
		cl:     cl,
		gw:     g,
		client: gateway.HTTPClient(fabric, 10*time.Second),
		url:    "http://" + g.Addr() + "/access",
	}, nil
}

// gwRun is the state of one gateway_mem_mixed run shared by its callers.
type gwRun struct {
	out      *outcome
	env      *gwEnv
	url      string // the front door the callers use this phase
	table    map[int]bool
	rng      [callers]*stats.RNG
	turn     [callers]int
	pins     [callers]map[string]int
	loadSum  [callers]float64
	app      [callers]int64 // sticky-tenant requests completed
	spans    [callers]*spanLog
	traced   bool
	accessID atomic.Uint64
}

func newGwRun(out *outcome, seed uint64) *gwRun {
	r := &gwRun{out: out}
	for i := range r.rng {
		r.rng[i] = stats.NewRNG(seed*1000003 + uint64(i))
		r.pins[i] = make(map[string]int)
	}
	return r
}

// request sends one /access request. Callers alternate the polled
// "web" tenant and the sticky "app" tenant; app requests carry one of
// the caller's session keys.
func (r *gwRun) request(i int) bool {
	r.turn[i]++
	tenant, session := "web", ""
	if r.turn[i]%2 == 0 {
		tenant = "app"
		session = fmt.Sprintf("c%d-s%d", i, r.rng[i].Intn(sessionsPerCaller))
	}
	req, err := http.NewRequest(http.MethodGet, r.url, nil)
	if err != nil {
		r.out.problem("building request: %v", err)
		return false
	}
	req.Header.Set("X-Tenant", tenant)
	if session != "" {
		req.Header.Set("X-Session", session)
	}
	var id uint64
	if r.traced {
		id = r.accessID.Add(1)
		req.Header.Set(accessIDHeader, strconv.FormatUint(id, 10))
	}
	t0 := time.Now()
	resp, err := r.env.client.Do(req)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return false
	}
	if r.traced {
		r.spans[i].add(id, spanHTTP, spanNone, t0, t1)
	}
	if resp.StatusCode != http.StatusOK {
		r.out.problem("%s: HTTP %d: %s", tenant, resp.StatusCode, body)
		return false
	}
	var rep gateway.AccessReply
	if err := json.Unmarshal(body, &rep); err != nil {
		r.out.problem("%s: reply %q: %v", tenant, body, err)
		return false
	}
	return r.check(i, tenant, session, rep)
}

// check verifies one reply: the right tenant, a serving node in the
// table, and for sessions, the node the session was first pinned to.
func (r *gwRun) check(i int, tenant, session string, rep gateway.AccessReply) bool {
	switch {
	case rep.Tenant != tenant:
		r.out.problem("reply for tenant %q answered as %q", tenant, rep.Tenant)
		return false
	case !r.table[rep.Server]:
		r.out.problem("%s: served by node %d outside the table", tenant, rep.Server)
		return false
	}
	if session != "" {
		r.app[i]++
		pin, seen := r.pins[i][session]
		switch {
		case !seen:
			r.pins[i][session] = rep.Server
		case !rep.Sticky || rep.Server != pin:
			r.out.problem("session %s pinned to node %d, served by %d (sticky=%v)", session, pin, rep.Server, rep.Sticky)
			return false
		}
	}
	r.loadSum[i] += float64(rep.Load)
	return true
}

// tracedHandler serves the gateway through a wrapper that records a
// span around Gateway.ServeHTTP.
func tracedHandler(g *gateway.Gateway, log *spanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		g.ServeHTTP(w, req)
		t1 := time.Now()
		if id, err := strconv.ParseUint(req.Header.Get(accessIDHeader), 10, 64); err == nil {
			log.add(id, spanServe, spanHTTP, t0, t1)
		}
	})
}

// seamListener adapts a transport listener to net/http.
type seamListener struct{ ln transport.Listener }

func (s seamListener) Accept() (net.Conn, error) { return s.ln.Accept() }
func (s seamListener) Close() error              { return s.ln.Close() }
func (s seamListener) Addr() net.Addr            { return seamAddr(s.ln.Addr()) }

type seamAddr string

func (a seamAddr) Network() string { return "mem" }
func (a seamAddr) String() string  { return string(a) }

// runGatewayMem is gateway_mem_mixed: the 16-node cluster on one mem
// fabric behind the HTTP gateway, two keep-alive callers alternating a
// polled and a sticky tenant.
func runGatewayMem(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	base, err := takeBaseline(false)
	if err != nil {
		return nil, err
	}
	r := newGwRun(out, cfg.seed)
	var start nodeCounters
	boot := func() (*gwEnv, error) {
		e, err := bootGateway(cfg.seed)
		if err == nil {
			start = readNodes(e.cl)
		}
		return e, err
	}
	first := func(e *gwEnv) error {
		r.env, r.url, r.table = e, e.url, nodeSet(e.cl)
		for i := range r.pins {
			r.pins[i] = make(map[string]int)
		}
		if !r.request(0) {
			return fmt.Errorf("first request failed")
		}
		return nil
	}
	env, setups, err := setUp(base, boot, first, (*gwEnv).close)
	if err != nil {
		return nil, err
	}
	out.setups = setups
	out.attempted = 1 // the set-up request
	out.run(warmup, r.request)

	if !cfg.trace {
		p := out.run(cfg.seconds, r.request)
		endToEnd(out.e2e, p)
		out.notes = append(out.notes, phaseNotes("measured", p)...)
	} else {
		r.loadSum, r.app = [callers]float64{}, [callers]int64{}
		gm := env.gw.Metrics()
		n0 := readNodes(env.cl)
		cm := env.cl.Metrics
		polls0, answered0, discards0, retries0, disp0 := cm.PollRequests.Value(), cm.PollResponses.Value(), cm.PollDiscards.Value(), cm.Retries.Value(), cm.Dispatches.Value()
		late0 := lateAnswers(env.cl)
		hits0 := gm.StickyHits.Value()
		plain := out.run(cfg.seconds/2, r.request)
		n1 := readNodes(env.cl)
		var loadSum float64
		var app int64
		for i := range r.loadSum {
			loadSum += r.loadSum[i]
			app += r.app[i]
		}
		m := out.layer
		polls := float64(cm.PollRequests.Value() - polls0)
		m.set("cluster.polls_per_access", ratio(polls, float64(cm.Dispatches.Value()-disp0)))
		m.set("cluster.poll_answered_ratio", ratio(float64(cm.PollResponses.Value()-answered0), polls))
		m.set("cluster.poll_discarded", float64(cm.PollDiscards.Value()-discards0))
		m.set("cluster.retries", float64(cm.Retries.Value()-retries0))
		m.set("cluster.late_answers", float64(lateAnswers(env.cl)-late0))
		m.set("gateway.sticky_hit_ratio", ratio(float64(gm.StickyHits.Value()-hits0), float64(app)))
		nodeDelta(n0, n1, plain.ok, loadSum, m)
		procMetrics(plain.proc, plain.ok, m)
		m.set("latency_p99_us", median(plain.figures().p99))

		// The traced phase serves the same gateway through a wrapping
		// handler on a second listener of the same fabric.
		ln, err := env.fabric.Listen()
		if err != nil {
			return nil, err
		}
		epoch := time.Now()
		serveLog := newSpanLog(epoch)
		for i := range r.spans {
			r.spans[i] = newSpanLog(epoch)
		}
		srv := &http.Server{Handler: tracedHandler(env.gw, serveLog)}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = srv.Serve(seamListener{ln}) // returns once Close tears the listener down
		}()
		r.url, r.traced = "http://"+ln.Addr()+"/access", true
		traced := out.run(cfg.seconds/2, r.request)
		srv.Close()
		<-served
		out.spans = mergeSpans(append(r.spans[:], serveLog)...)
		gatewayLayer(m, out, out.spans)
		m.set("bench.trace_overhead", ratio(traced.throughput(), plain.throughput()))
		if err := echoMetrics(env.fabric, m); err != nil {
			out.problem("transport echo: %v", err)
		}
		out.notes = append(append(out.notes, phaseNotes("untraced", plain)...), phaseNotes("traced", traced)...)
	}

	gm := env.gw.Metrics()
	rejected := gm.RejectedRate.Value() + gm.RejectedAdmission.Value() + gm.UnknownTenant.Value()
	if req := gm.Requests.Value(); req != gm.Admitted.Value()+rejected || req != out.attempted {
		out.problem("gateway counted %d requests, admitted %d + rejected %d, callers sent %d",
			req, gm.Admitted.Value(), rejected, out.attempted)
	}
	if cfg.trace {
		m := out.layer
		m.set("gateway.admitted_ratio", ratio(float64(gm.Admitted.Value()), float64(gm.Requests.Value())))
		m.set("gateway.sticky_violations", float64(gm.StickyViolations.Value()))
		m.set("gateway.rejected", float64(rejected+gm.Overloads.Value()))
		m.set("gateway.errors", float64(gm.Errors.Value()))
	}
	checkServed(out, start, readNodes(env.cl))
	env.close()
	if err := base.checkTeardown(); err != nil {
		out.problem("%v", err)
	}
	return out, nil
}

// gatewayLayer fills the gateway span metrics: time inside
// Gateway.ServeHTTP, and the HTTP round trip outside it.
func gatewayLayer(m metrics, out *outcome, spans []span) {
	st := collectSpanStats(spans)
	serve := summarize(st.dur[spanServe])
	m.set("gateway.serve_us_p50", serve.pct(50))
	m.set("gateway.serve_us_p99", serve.pct(99))
	m.set("gateway.http_us_p50", summarize(st.self[spanHTTP]).pct(50))
	out.notes = append(out.notes, fmt.Sprintf(
		"span medians: serve = %.2f us, http self = %.2f us; traced request p50 = %.2f us",
		serve.pct(50), summarize(st.self[spanHTTP]).pct(50), summarize(st.dur[spanHTTP]).pct(50)))
}
