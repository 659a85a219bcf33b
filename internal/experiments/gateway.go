package experiments

import (
	"time"

	"finelb/internal/cluster"
	"finelb/internal/core"
	"finelb/internal/gateway"
	"finelb/internal/obs"
	"finelb/internal/transport"
)

// Gateway drives the HTTP front door end to end: a self-hosted
// cluster behind internal/gateway, hit by the open-loop HTTP load
// generator with a paid tenant (sticky sessions, violation budget) and
// a free tenant whose token bucket is sized to shed most of its
// offered share. One row per routing policy; the interesting columns
// are the shed/admitted split and the tail of the admitted latency.
func Gateway(o Options) (*Table, error) {
	const servers = 8
	requests := pick(o, 4000, 600)
	rate := pick(o, 4000.0, 1500.0)
	policies := []core.Policy{core.NewRandom(), core.NewPoll(2)}
	t := &Table{
		ID:     "gateway",
		Title:  "HTTP gateway: per-tenant admission, rate limiting, and sticky routing over the polling client",
		Header: []string{"Policy", "Sent", "OK", "Limited", "Rejected", "Sticky", "Violations", "Mean(ms)", "P95(ms)"},
	}
	subName := o.Transport
	if subName == "" {
		subName = "net"
	}
	for _, p := range policies {
		tr, err := transport.ByName(o.Transport, o.Seed)
		if err != nil {
			return nil, err
		}
		reg := obs.NewRegistry()
		cl, err := cluster.StartCluster(cluster.ExperimentConfig{
			Servers:   servers,
			Clients:   4,
			Policy:    p,
			Transport: tr,
			SlowProb:  -1, // the cell measures gateway behavior, not the contention model
			Metrics:   reg,
			Seed:      o.Seed,
		})
		if err != nil {
			return nil, err
		}
		gw, err := gateway.New(gateway.Config{
			Backends: cl.Clients,
			Tenants: []gateway.TenantConfig{
				// Paid: unlimited offered load, sticky sessions, and a
				// budget of 20 discretionary violations per second.
				{Name: "paid", Sticky: true, StickyOverload: 2, ViolationRate: 20, ViolationBurst: 20},
				// Free: a bucket an eighth of the aggregate arrival rate,
				// while round-robin attribution offers it half — most of
				// its share is shed at the door.
				{Name: "free", RateLimit: rate / 8, Burst: rate / 16},
			},
			Registry: reg,
		})
		if err != nil {
			cl.Close()
			return nil, err
		}
		ln, err := tr.Listen()
		if err != nil {
			cl.Close()
			return nil, err
		}
		if err := gw.Start(ln); err != nil {
			cl.Close()
			return nil, err
		}
		res, runErr := gateway.RunLoadGen(gateway.LoadGenConfig{
			URL:      "http://" + gw.Addr(),
			Client:   gateway.HTTPClient(tr, 10*time.Second),
			Rate:     rate,
			Requests: requests,
			Tenants:  []string{"paid", "free"},
			Sessions: 32,
			Seed:     o.Seed,
		})
		closeErr := gw.Close()
		cl.Close()
		if runErr != nil {
			return nil, runErr
		}
		if closeErr != nil {
			return nil, closeErr
		}
		o.record("gateway", p.String(), subName, reg.Snapshot())
		t.AddRow(p.String(), res.Sent, res.OK, res.RateLimited, res.RejectedAdmission,
			res.Sticky, res.Violations,
			res.Latency.Mean()*1e3, res.Latency.Percentile(0.95)*1e3)
		o.progress("gateway: %s done on %s (%s)", p, subName, res.Describe())
	}
	t.AddNote("open-loop arrivals at %.0f/s split round-robin across the tenants; latency is measured from each request's scheduled arrival", rate)
	t.AddNote("free's token bucket passes an eighth of the aggregate rate, so Limited ~ the other three eighths of its offered half")
	t.AddNote("paid sessions pin to their first node and may spend budgeted violations to leave one whose load index reaches the overload threshold")
	return t, nil
}
