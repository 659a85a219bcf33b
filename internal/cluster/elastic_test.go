package cluster

import (
	"strings"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
)

func TestDirectoryWithdraw(t *testing.T) {
	d := NewDirectory(0)
	d.Publish(Endpoint{NodeID: 1, Service: "svc", AccessAddr: "a", LoadAddr: "l"})
	d.Publish(Endpoint{NodeID: 2, Service: "svc", AccessAddr: "b", LoadAddr: "m"})
	d.Withdraw(1, "svc")
	eps, _ := d.Lookup("svc", 0)
	if len(eps) != 1 || eps[0].NodeID != 2 {
		t.Fatalf("after withdraw: %v", eps)
	}
	// Withdrawing an absent entry is a no-op.
	d.Withdraw(7, "svc")
	if d.Len() != 1 {
		t.Fatalf("len %d after no-op withdraw", d.Len())
	}
	// Publishing again re-registers.
	d.Publish(Endpoint{NodeID: 1, Service: "svc", AccessAddr: "a", LoadAddr: "l"})
	if d.Len() != 2 {
		t.Fatalf("len %d after re-publish", d.Len())
	}
}

func TestNodeDrainRejoin(t *testing.T) {
	dir := NewDirectory(0)
	n, err := StartNode(NodeConfig{
		ID: 3, Service: "svc", Transport: testTransport(t),
		Directory: dir, SlowProb: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if len(lookup(t, dir, "svc", 0)) != 1 {
		t.Fatal("node did not publish")
	}
	n.Drain()
	if !n.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if len(lookup(t, dir, "svc", 0)) != 0 {
		t.Fatal("drain did not withdraw the directory entry")
	}
	n.Drain() // idempotent
	// A drained node still serves and still answers load inquiries: the
	// request path is untouched.
	caller := NewCaller(n.Transport(), 0)
	defer caller.Close()
	if _, err := caller.Call(n.Endpoint(), "svc", 0, 0, []byte("x")); err != nil {
		t.Fatalf("drained node refused a request: %v", err)
	}
	n.Rejoin()
	if n.Draining() {
		t.Fatal("Draining() true after Rejoin")
	}
	if len(lookup(t, dir, "svc", 0)) != 1 {
		t.Fatal("rejoin did not re-publish")
	}
}

func TestIdealManagerElasticPool(t *testing.T) {
	m, err := StartIdealManager(testTransport(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.EnsureServers(4)
	if got := len(m.Counts()); got != 4 {
		t.Fatalf("counts len %d after EnsureServers(4)", got)
	}
	// New slots are inactive until re-registration: acquire only assigns
	// the original two.
	for i := 0; i < 20; i++ {
		if idx := m.acquire(); idx > 1 {
			t.Fatalf("acquire assigned inactive server %d", idx)
		}
	}
	m.SetActive(2, true)
	seen := false
	for i := 0; i < 40 && !seen; i++ {
		seen = m.acquire() == 2
	}
	if !seen {
		t.Fatal("activated server 2 never assigned (it has the lowest count)")
	}
	// Deactivating a server stops assignments but keeps its count.
	m.SetActive(0, false)
	before := m.Counts()[0]
	for i := 0; i < 20; i++ {
		if idx := m.acquire(); idx == 0 {
			t.Fatal("acquire assigned deactivated server 0")
		}
	}
	if m.Counts()[0] != before {
		t.Fatalf("deactivated count moved: %d -> %d", before, m.Counts()[0])
	}
	if !m.release(0) {
		t.Fatal("release of deactivated server refused")
	}
	// With everything deactivated, acquire falls back to the full set
	// rather than fail the access, and still takes its least-loaded
	// server: slot 3, which never joined and so never served.
	for i := 0; i < 4; i++ {
		m.SetActive(i, false)
	}
	counts := m.Counts()
	if idx := m.acquire(); idx != 3 || counts[3] != 0 {
		t.Fatalf("all-inactive acquire picked server %d, want least-loaded 3 (counts %v)", idx, counts)
	}
}

func TestClusterJoinDrainLeave(t *testing.T) {
	cl, err := StartCluster(ExperimentConfig{
		Servers: 2, Clients: 1,
		Policy:    core.NewRandom(),
		Transport: testTransport(t),
		Workload:  fastWorkload(2, 0.3),
		SlowProb:  -1, Seed: 9,
		Membership: &membership.Schedule{Events: []membership.Event{{At: time.Hour, Node: 2, Kind: membership.Join}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if cl.Pool() != 2 {
		t.Fatalf("initial pool %d", cl.Pool())
	}
	if !cl.Join(2) {
		t.Fatal("Join(2) refused")
	}
	if cl.Join(2) {
		t.Fatal("Join(2) twice applied twice")
	}
	if cl.Pool() != 3 || cl.Nodes[2] == nil {
		t.Fatalf("pool %d after join, node %v", cl.Pool(), cl.Nodes[2])
	}
	waitUntil(t, func() bool { return cl.Dir.Len() == 3 }, "joined node in directory")

	if !cl.Drain(2) {
		t.Fatal("Drain(2) refused")
	}
	if cl.Drain(2) {
		t.Fatal("Drain(2) twice applied twice")
	}
	if !cl.Nodes[2].Draining() || cl.Pool() != 2 {
		t.Fatalf("drain state wrong: draining=%v pool=%d", cl.Nodes[2].Draining(), cl.Pool())
	}
	if !cl.Leave(2) {
		t.Fatal("Leave(2) refused")
	}

	// A rejoin after leave restores the same node process.
	if !cl.Join(2) {
		t.Fatal("re-Join(2) refused")
	}
	if cl.Nodes[2].Draining() {
		t.Fatal("rejoined node still draining")
	}

	// The last routable member never drains.
	if !cl.Drain(2) || !cl.Drain(1) {
		t.Fatal("shrinking to one refused")
	}
	if cl.Drain(0) {
		t.Fatal("last member drained")
	}
	if cl.Leave(0) {
		t.Fatal("last member left")
	}

	joins, drains, leaves, finalPool, peakPool := cl.ChurnStats()
	if joins != 2 || drains != 3 || leaves != 1 || finalPool != 1 || peakPool != 3 {
		t.Fatalf("churn stats: joins=%d drains=%d leaves=%d final=%d peak=%d",
			joins, drains, leaves, finalPool, peakPool)
	}
}

func TestRunExperimentMembershipJoin(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Servers: 2, Clients: 2,
		Workload:  fastWorkload(2, 0.5),
		Policy:    core.NewRandom(),
		Transport: testTransport(t),
		Accesses:  1500, Seed: 21,
		SlowProb: -1,
		DirTTL:   400 * time.Millisecond, // fast refresh so clients see the join quickly
		Membership: &membership.Schedule{Events: []membership.Event{
			{At: 200 * time.Millisecond, Node: 2, Kind: membership.Join},
			{At: 200 * time.Millisecond, Node: 3, Kind: membership.Join},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lost := res.Metrics.Value(obs.MetricLost); lost != 0 {
		t.Fatalf("lost: %d", lost)
	}
	if res.Joins != 2 || res.FinalPool != 4 || res.PeakPool != 4 {
		t.Fatalf("joins=%d final=%d peak=%d", res.Joins, res.FinalPool, res.PeakPool)
	}
	if len(res.PerServer) != 4 {
		t.Fatalf("PerServer sized %d", len(res.PerServer))
	}
	if res.PerServer[2] == 0 || res.PerServer[3] == 0 {
		t.Fatalf("joined servers served nothing: %v", res.PerServer)
	}
	// Elastic runs register the membership metric catalog.
	found := false
	for _, mv := range res.Metrics.Metrics {
		if mv.Name == "membership_joins_total" {
			found = mv.Value == 2
		}
	}
	if !found {
		t.Fatal("membership_joins_total missing or wrong in elastic snapshot")
	}
}

func TestRunExperimentMembershipDrain(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Servers: 3, Clients: 2,
		Workload:  fastWorkload(3, 0.5),
		Policy:    core.NewRoundRobin(),
		Transport: testTransport(t),
		Accesses:  1500, Seed: 22,
		SlowProb: -1,
		DirTTL:   400 * time.Millisecond,
		Membership: &membership.Schedule{Events: []membership.Event{
			{At: 100 * time.Millisecond, Node: 2, Kind: membership.Drain},
			{At: 600 * time.Millisecond, Node: 2, Kind: membership.Leave},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Graceful drain: everything routed to the node before (or right
	// around) the drain still completes.
	if lost := res.Metrics.Value(obs.MetricLost); lost != 0 {
		t.Fatalf("lost: %d", lost)
	}
	if res.Drains != 1 || res.Leaves != 1 || res.FinalPool != 2 {
		t.Fatalf("drains=%d leaves=%d final=%d", res.Drains, res.Leaves, res.FinalPool)
	}
	// The drained server got only the pre-drain share.
	total := res.PerServer[0] + res.PerServer[1] + res.PerServer[2]
	if total != 1500 {
		t.Fatalf("per-server sum %d", total)
	}
	if res.PerServer[2] >= res.PerServer[0]/2 {
		t.Fatalf("drained server kept serving a full share: %v", res.PerServer)
	}
}

func TestRunExperimentIdealElastic(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Servers: 2, Clients: 2,
		Workload:  fastWorkload(2, 0.5),
		Policy:    core.NewIdeal(),
		Transport: testTransport(t),
		Accesses:  1200, Seed: 23,
		SlowProb: -1,
		DirTTL:   400 * time.Millisecond,
		Membership: &membership.Schedule{Events: []membership.Event{
			{At: 150 * time.Millisecond, Node: 2, Kind: membership.Join},
			{At: 700 * time.Millisecond, Node: 0, Kind: membership.Drain},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lost := res.Metrics.Value(obs.MetricLost); lost != 0 {
		t.Fatalf("lost: %d", lost)
	}
	if res.Joins != 1 || res.Drains != 1 || res.FinalPool != 2 {
		t.Fatalf("joins=%d drains=%d final=%d", res.Joins, res.Drains, res.FinalPool)
	}
	// The manager re-registration must have routed real work to the
	// joined node.
	if res.PerServer[2] == 0 {
		t.Fatalf("manager never assigned the joined server: %v", res.PerServer)
	}
}

func TestRunExperimentAutoscaler(t *testing.T) {
	if testing.Short() {
		t.Skip("autoscaler run needs a couple of wall-clock seconds")
	}
	res, err := RunExperiment(ExperimentConfig{
		Servers: 2, Clients: 2,
		Workload:  fastWorkload(2, 0.9),
		Policy:    core.NewPoll(2),
		Transport: testTransport(t),
		Accesses:  3000, Seed: 24,
		SlowProb: -1,
		DirTTL:   400 * time.Millisecond,
		Autoscaler: &membership.AutoscalerConfig{
			Min: 2, Max: 5,
			ScaleUpAt: 1.5, ScaleDownAt: 0.2,
			ScaleUpCooldown: 100 * time.Millisecond, ScaleDownCooldown: time.Hour,
			Interval: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lost := res.Metrics.Value(obs.MetricLost); lost != 0 {
		t.Fatalf("lost: %d", lost)
	}
	// At 90% load on two servers the mean load index sits well above the
	// 1.5 threshold, so the pool must have grown (the exact trajectory
	// is wall-clock shaped; only the direction is asserted).
	if res.Joins == 0 || res.PeakPool <= 2 {
		t.Fatalf("autoscaler never grew the pool: joins=%d peak=%d", res.Joins, res.PeakPool)
	}
	if res.PeakPool > 5 {
		t.Fatalf("peak pool %d above max", res.PeakPool)
	}
}

func TestStartClusterElasticValidation(t *testing.T) {
	base := ExperimentConfig{
		Servers: 2, Clients: 1,
		Workload: fastWorkload(2, 0.3),
		Policy:   core.NewRandom(),
	}
	cases := []struct {
		name string
		mod  func(*ExperimentConfig)
		want string
	}{
		{"bad event", func(c *ExperimentConfig) {
			c.Membership = &membership.Schedule{Events: []membership.Event{{At: -time.Second, Node: 0, Kind: membership.Join}}}
		}, "negative offset"},
		{"autoscaler max below servers", func(c *ExperimentConfig) {
			c.Autoscaler = &membership.AutoscalerConfig{Min: 1, Max: 1}
		}, "below initial"},
		{"membership with faults", func(c *ExperimentConfig) {
			c.Membership = &membership.Schedule{Events: []membership.Event{{At: time.Second, Node: 0, Kind: membership.Drain}}}
			c.Faults = &faults.Schedule{Events: []faults.NodeEvent{{At: time.Second, Node: 0, Kind: faults.Crash}}}
		}, "cannot combine"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		_, err := RunExperiment(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
