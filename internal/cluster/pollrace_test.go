package cluster

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/obs"
	"finelb/internal/transport"
)

// TestLoadTableFanoutRace hammers the poll hot path's shared state
// from every direction at once — accesses mutating the sharded load
// table, poll rounds answering inquiries synchronously on the
// accessors' own goroutines, drain/rejoin cycling membership (which
// also exercises Refresh's pool pruning), and raw load-index
// reads — and relies on -race to catch any unsynchronized access. The
// assertions are deliberately weak; the scheduler interleaving is the
// test.
func TestLoadTableFanoutRace(t *testing.T) {
	tr := transport.NewMem(transport.MemConfig{Seed: 3})
	dir := NewDirectory(time.Hour)
	nodes := make([]*Node, 4)
	for i := range nodes {
		n, err := StartNode(NodeConfig{
			ID: i, Service: "svc", Directory: dir, SlowProb: -1,
			Transport: tr, Seed: uint64(i + 1), Workers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		t.Cleanup(func() { _ = n.Close() })
	}
	c, err := NewClient(ClientConfig{
		Directory: dir, Service: "svc",
		Policy:          core.NewPoll(2),
		QuarantineAfter: -1,
		RefreshInterval: time.Millisecond,
		Transport:       tr,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	var accessors, togglers sync.WaitGroup
	stop := make(chan struct{})
	// Accessors: each access is a poll round (load-table reads, answer
	// deliveries) plus a service round trip (load-table writes).
	for g := 0; g < 4; g++ {
		accessors.Add(1)
		go func() {
			defer accessors.Done()
			for i := 0; i < 300; i++ {
				_, _ = c.Access(10, nil) // errors fine: drain may empty the table briefly
			}
		}()
	}
	// Drain toggler: membership churn against in-flight rounds, which
	// also drives Refresh's pool pruning.
	togglers.Add(1)
	go func() {
		defer togglers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			n := nodes[i%len(nodes)]
			n.Drain()
			n.Rejoin()
		}
	}()
	// Load-index readers: the sharded sum racing its writers.
	togglers.Add(1)
	go func() {
		defer togglers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if nodes[i%len(nodes)].LoadIndex() < 0 {
				t.Error("load index went negative")
				return
			}
		}
	}()

	accessors.Wait()
	close(stop)
	togglers.Wait()
}

// TestMemFanoutDeterministic pins the batched fan-out to the same
// RNG/seq stream as the historical per-peer path: two runs of the same
// seeded workload on fresh mem fabrics must pick the same server
// sequence and freeze byte-identical deterministic metric digests.
// (stats.TestChooseIdentityMatchesChoose pins the draw-level
// equivalence; this is the cluster-level, digest-level statement.)
func TestMemFanoutDeterministic(t *testing.T) {
	run := func() ([]int, string) {
		tr := transport.NewMem(transport.MemConfig{Seed: 1})
		reg := obs.NewRegistry()
		m := obs.NewRunMetrics(reg)
		dir := NewDirectory(time.Hour)
		var nodes []*Node
		for i := 0; i < 8; i++ {
			n, err := StartNode(NodeConfig{
				ID: i, Service: "svc", Directory: dir, SlowProb: -1,
				Transport: tr, Seed: uint64(i + 1), Metrics: m,
			})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		c, err := NewClient(ClientConfig{
			Directory: dir, Service: "svc",
			Policy:          core.NewPoll(3),
			QuarantineAfter: -1,
			Transport:       tr,
			Metrics:         m,
			Seed:            42,
		})
		if err != nil {
			t.Fatal(err)
		}
		picks := make([]int, 0, 400)
		for i := 0; i < 400; i++ {
			info, err := c.Access(0, nil)
			if err != nil {
				t.Fatalf("access %d: %v", i, err)
			}
			picks = append(picks, info.Server)
		}
		_ = c.Close()
		for _, n := range nodes {
			_ = n.Close()
		}
		return picks, reg.Snapshot().DeterministicDigest()
	}

	picks1, digest1 := run()
	picks2, digest2 := run()
	if digest1 != digest2 {
		t.Errorf("identical seeded runs froze different metric digests:\n%s\nvs\n%s", digest1, digest2)
	}
	for i := range picks1 {
		if picks1[i] != picks2[i] {
			t.Fatalf("pick sequence diverged at access %d: %d vs %d", i, picks1[i], picks2[i])
		}
	}
}

// TestRefreshPruneGrace pins the FD-audit pruning contract: a server
// missing from one refresh keeps its connection pool (a starved
// republish must not tear down live connections), while one absent
// past pruneGrace loses it.
func TestRefreshPruneGrace(t *testing.T) {
	tr := transport.NewMem(transport.MemConfig{Seed: 9})
	dir := NewDirectory(time.Hour)
	var nodes []*Node
	for i := 0; i < 2; i++ {
		n, err := StartNode(NodeConfig{
			ID: i, Service: "svc", Directory: dir, SlowProb: -1,
			Transport: tr, Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		t.Cleanup(func() { _ = n.Close() })
	}
	c, err := NewClient(ClientConfig{
		Directory: dir, Service: "svc",
		Policy:          core.NewPoll(2),
		QuarantineAfter: -1,
		Transport:       tr,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if _, err := c.Access(0, nil); err != nil {
		t.Fatal(err)
	}
	// One access reaches one server; pin the other so both hold a pool.
	for _, n := range nodes {
		if _, err := c.AccessNode(n.cfg.ID, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.calls.mu.Lock()
	pools := len(c.calls.pools)
	c.calls.mu.Unlock()
	if pools != 2 {
		t.Fatalf("pools after accessing both servers: %d, want 2", pools)
	}

	dir.Withdraw(0, "svc")
	c.Refresh() // first miss: marked absent, connections survive
	c.calls.mu.Lock()
	pools, marks := len(c.calls.pools), len(c.calls.absentSince)
	c.calls.mu.Unlock()
	if pools != 2 {
		t.Fatalf("pools pruned on first missed refresh: %d, want 2", pools)
	}
	if marks == 0 {
		t.Fatal("missing endpoint not marked absent")
	}

	// A republish inside the grace clears the mark.
	dir.Publish(Endpoint{NodeID: 0, Service: "svc",
		AccessAddr: nodes[0].AccessAddr(), LoadAddr: nodes[0].LoadAddr()})
	c.Refresh()
	c.calls.mu.Lock()
	marks = len(c.calls.absentSince)
	c.calls.mu.Unlock()
	if marks != 0 {
		t.Fatalf("absence marks survived a republish: %d, want 0", marks)
	}

	// Gone for good: backdate the mark past the grace and refresh.
	dir.Withdraw(0, "svc")
	c.Refresh()
	c.calls.mu.Lock()
	for addr, first := range c.calls.absentSince {
		c.calls.absentSince[addr] = first.Add(-pruneGrace - time.Second)
	}
	c.calls.mu.Unlock()
	c.Refresh()
	c.calls.mu.Lock()
	pools = len(c.calls.pools)
	_, pool0 := c.calls.pools[nodes[0].AccessAddr()]
	c.calls.mu.Unlock()
	if pools != 1 || pool0 {
		t.Fatalf("after grace expiry: %d pools (node0 pool held: %v), want only node 1's", pools, pool0)
	}
}

// TestTableSnapshotStableUnderRefresh runs accesses, pinned accesses
// and table churn (withdraw and republish, explicit and periodic
// Refresh) at once, and checks a table taken beforehand never changes:
// accesses share the installed table read-only instead of copying it,
// which is sound only while Refresh installs a fresh slice and nothing
// writes one after. -race reports any write to a shared table.
func TestTableSnapshotStableUnderRefresh(t *testing.T) {
	tr := transport.NewMem(transport.MemConfig{Seed: 4})
	dir := NewDirectory(time.Hour)
	for i := 0; i < 4; i++ {
		n, err := StartNode(NodeConfig{
			ID: i, Service: "svc", Directory: dir, SlowProb: -1,
			Transport: tr, Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
	}
	c, err := NewClient(ClientConfig{
		Directory: dir, Service: "svc",
		Policy:          core.NewPoll(2),
		QuarantineAfter: -1,
		RefreshInterval: time.Millisecond,
		Transport:       tr,
		Seed:            6,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	snapshot := c.table()
	want := append([]Endpoint(nil), snapshot...)
	if len(want) != 4 {
		t.Fatalf("table has %d endpoints, want 4", len(want))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				_, _ = c.Access(0, nil) // errors fine: the table may briefly lack a node
				_, _ = c.AccessNode(want[g].NodeID, 0, nil)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			dir.Withdraw(want[3].NodeID, "svc")
			c.Refresh()
			dir.Publish(want[3])
			c.Refresh()
		}
	}()
	wg.Wait()

	if !reflect.DeepEqual(snapshot, want) {
		t.Fatalf("snapshot changed from %+v to %+v", want, snapshot)
	}
	for _, ep := range c.Endpoints() {
		if ep.NodeID == want[3].NodeID {
			return
		}
	}
	t.Fatalf("republished node %d missing from the final table", want[3].NodeID)
}
