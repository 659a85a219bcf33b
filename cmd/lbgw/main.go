// Command lbgw is the multi-tenant HTTP front door: it self-hosts a
// prototype cluster (directory, server nodes, polling clients) on the
// chosen transport and serves REST traffic on top of it through
// internal/gateway — per-tenant token-bucket rate limiting, admission
// control, and sticky-session routing with a bounded violation budget.
//
// Usage:
//
//	lbgw [-addr :8080] [-transport net] [-tenants SPEC] [-policy poll -d 2]
//	     [-servers 4] [-clients 2] [-http :0] [-pprof] [-seed 1]
//
// The gateway itself serves /access, /healthz, /metrics, and /trace;
// -http additionally exposes the same obs registry on a plain TCP
// mux (useful when the gateway listens on the mem fabric), and -pprof
// mounts /debug/pprof/ on both.
//
// With -loadgen the process instead drives its own gateway with the
// open-loop generator and exits: -rate, -requests, -sessions,
// -serviceus shape the load, -bench DIR writes BENCH_gateway.json,
// and -smoke makes the exit status assert that requests were admitted
// and shutdown was clean (the CI gateway smoke step).
//
// The -tenants specification is documented on gateway.ParseTenants,
// e.g. "paid:rate=500,burst=50,inflight=64,sticky,budget=5;free:rate=50".
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/core"
	"finelb/internal/experiments"
	"finelb/internal/gateway"
	"finelb/internal/obs"
	"finelb/internal/transport"
)

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "", "gateway listen address (TCP; requires -transport net; empty picks a fresh loopback port)")
	trName := flag.String("transport", "net", "transport the cluster and gateway run on: net or mem")
	tenantsSpec := flag.String("tenants", "default:sticky", "tenant specification (see gateway.ParseTenants)")
	defTenant := flag.String("default", "", "tenant assumed for requests without X-Tenant (default: first in -tenants)")
	pname := flag.String("policy", "poll", "routing policy: random, rr, poll, or ideal")
	d := flag.Int("d", 2, "servers polled per access (policy=poll)")
	servers := flag.Int("servers", 4, "backend server nodes to self-host")
	clients := flag.Int("clients", 2, "polling clients the gateway routes through")
	slowProb := flag.Float64("slowprob", cluster.DefaultSlowProb, "busy-node slow-answer probability (negative disables)")
	httpAddr := flag.String("http", "", "also serve /metrics on this TCP address; empty disables")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/ handlers on the HTTP surfaces")
	seed := flag.Uint64("seed", 1, "random seed")

	loadgen := flag.Bool("loadgen", false, "drive the gateway with the open-loop generator and exit")
	rate := flag.Float64("rate", 500, "loadgen aggregate arrival rate, requests/second")
	requests := flag.Int("requests", 1000, "loadgen total requests")
	sessions := flag.Int("sessions", 16, "loadgen distinct sessions per tenant (0 disables session keys)")
	serviceUs := flag.Uint64("serviceus", 0, "loadgen per-request service demand override, microseconds")
	benchDir := flag.String("bench", "", "with -loadgen, write BENCH_gateway.json into this directory")
	smoke := flag.Bool("smoke", false, "with -loadgen, fail unless requests were admitted and shutdown is clean")
	flag.Parse()

	fail := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "lbgw: "+format+"\n", a...)
		return 1
	}

	tr, err := transport.ByName(*trName, *seed)
	if err != nil {
		return fail("%v", err)
	}
	if *addr != "" && *trName != "net" {
		return fail("-addr requires -transport net")
	}

	policy, err := core.ParsePolicy(*pname, *d, 0, 0)
	if err != nil {
		return fail("%v", err)
	}

	tenants, err := gateway.ParseTenants(*tenantsSpec)
	if err != nil {
		return fail("%v", err)
	}
	def := *defTenant
	if def == "" {
		def = tenants[0].Name
	}

	// One registry spans the cluster and the gateway, so /metrics is
	// the whole front door in one snapshot.
	reg := obs.NewRegistry()
	cl, err := cluster.StartCluster(cluster.ExperimentConfig{
		Servers:   *servers,
		Clients:   *clients,
		Policy:    policy,
		Transport: tr,
		SlowProb:  *slowProb,
		Metrics:   reg,
		Seed:      *seed,
	})
	if err != nil {
		return fail("starting cluster: %v", err)
	}
	defer cl.Close()

	gw, err := gateway.New(gateway.Config{
		Backends:      cl.Clients,
		Tenants:       tenants,
		DefaultTenant: def,
		Registry:      reg,
		Pprof:         *pprofOn,
	})
	if err != nil {
		return fail("%v", err)
	}
	var ln transport.Listener
	if *addr != "" {
		ln, err = gateway.ListenTCP(*addr)
	} else {
		ln, err = tr.Listen()
	}
	if err != nil {
		return fail("listen: %v", err)
	}
	if err := gw.Start(ln); err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "lbgw: %d tenant(s), %d server(s), policy %s on %s at http://%s\n",
		len(tenants), *servers, *pname, *trName, gw.Addr())

	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			_ = gw.Close()
			return fail("metrics listener: %v", err)
		}
		defer func() { _ = hln.Close() }()
		go func() { _ = http.Serve(hln, obs.NewMux(reg, nil, *pprofOn)) }()
		fmt.Fprintf(os.Stderr, "lbgw: metrics at http://%s/metrics\n", hln.Addr())
	}

	if *loadgen {
		return runLoadGen(gw, tr, tenants, loadGenFlags{
			rate: *rate, requests: *requests, sessions: *sessions,
			serviceUs: uint32(*serviceUs), seed: *seed,
			benchDir: *benchDir, smoke: *smoke,
			transport: *trName, policy: *pname, tenantsSpec: *tenantsSpec,
		})
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if err := gw.Close(); err != nil {
		return fail("shutdown: %v", err)
	}
	printSummary(reg)
	return 0
}

type loadGenFlags struct {
	rate      float64
	requests  int
	sessions  int
	serviceUs uint32
	seed      uint64
	benchDir  string
	smoke     bool
	// Config identity for the bench record's digest.
	transport, policy, tenantsSpec string
}

func runLoadGen(gw *gateway.Gateway, tr transport.Transport, tenants []gateway.TenantConfig, f loadGenFlags) int {
	names := make([]string, len(tenants))
	for i, tc := range tenants {
		names[i] = tc.Name
	}
	res, err := gateway.RunLoadGen(gateway.LoadGenConfig{
		URL:       "http://" + gw.Addr(),
		Client:    gateway.HTTPClient(tr, 10*time.Second),
		Rate:      f.rate,
		Requests:  f.requests,
		Tenants:   names,
		Sessions:  f.sessions,
		ServiceUs: f.serviceUs,
		Seed:      f.seed,
	})
	if err != nil {
		_ = gw.Close()
		fmt.Fprintf(os.Stderr, "lbgw: loadgen: %v\n", err)
		return 1
	}
	fmt.Println(res.Describe())
	if f.benchDir != "" {
		rec := experiments.BenchRecord{
			Experiment:  "gateway",
			Seed:        f.seed,
			WallSeconds: res.Wall.Seconds(),
			Metrics: map[string]float64{
				"sent":               float64(res.Sent),
				"ok":                 float64(res.OK),
				"rate_limited":       float64(res.RateLimited),
				"rejected_admission": float64(res.RejectedAdmission),
				"overloads":          float64(res.Overloads),
				"errors":             float64(res.Errors),
				"sticky":             float64(res.Sticky),
				"violations":         float64(res.Violations),
				"mean_ms":            res.Latency.Mean() * 1e3,
				"p95_ms":             res.Latency.Percentile(0.95) * 1e3,
			},
		}
		digest := sha256.Sum256([]byte(fmt.Sprintf("gateway|transport=%s|policy=%s|tenants=%s|rate=%v|requests=%d",
			f.transport, f.policy, f.tenantsSpec, f.rate, f.requests)))
		rec.ConfigDigest = hex.EncodeToString(digest[:8])
		if err := experiments.WriteBenchRecord(f.benchDir, rec); err != nil {
			_ = gw.Close()
			fmt.Fprintf(os.Stderr, "lbgw: bench record: %v\n", err)
			return 1
		}
	}
	closeErr := gw.Close()
	if f.smoke {
		if res.OK == 0 {
			fmt.Fprintf(os.Stderr, "lbgw: smoke: no admitted requests (%s)\n", res.Describe())
			return 1
		}
		if closeErr != nil {
			fmt.Fprintf(os.Stderr, "lbgw: smoke: unclean shutdown: %v\n", closeErr)
			return 1
		}
		fmt.Printf("smoke ok: %d/%d requests admitted, clean shutdown\n", res.OK, res.Sent)
	} else if closeErr != nil {
		fmt.Fprintf(os.Stderr, "lbgw: shutdown: %v\n", closeErr)
		return 1
	}
	return 0
}

func printSummary(reg *obs.Registry) {
	snap := reg.Snapshot()
	fmt.Fprintf(os.Stderr, "lbgw: requests=%d admitted=%d rate_limited=%d admission_rejected=%d sticky_hits=%d violations=%d\n",
		snap.Value(obs.MetricGatewayRequests),
		snap.Value(obs.MetricGatewayAdmitted),
		snap.Value(obs.MetricGatewayRejectedRate),
		snap.Value(obs.MetricGatewayRejectedAdmission),
		snap.Value(obs.MetricGatewayStickyHits),
		snap.Value(obs.MetricGatewayStickyViolations))
}
