package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/obs"
	"finelb/internal/stats"
)

// testCluster boots n server nodes (contention model off unless slow
// is set) plus a directory, and returns them with a cleanup. All nodes
// share the package test transport (see testTransport).
func testCluster(t *testing.T, n int, slow bool) (*Directory, []*Node) {
	t.Helper()
	d := NewDirectory(time.Minute)
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := NodeConfig{
			ID: i, Service: "svc", Directory: d, Seed: uint64(i),
			Transport: testTransport(t),
		}
		if !slow {
			cfg.SlowProb = -1
		}
		node, err := StartNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		t.Cleanup(func() { node.Close() })
	}
	return d, nodes
}

func newTestClient(t *testing.T, d *Directory, p core.Policy, mgrAddr string) *Client {
	t.Helper()
	c, err := NewClient(ClientConfig{
		Directory: d, Service: "svc", Policy: p, ManagerAddr: mgrAddr, Seed: 42,
		Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClientValidation(t *testing.T) {
	d := NewDirectory(time.Minute)
	cases := []ClientConfig{
		{Service: "svc", Policy: core.NewRandom()},                             // no directory
		{Directory: d, Service: "svc", Policy: core.Policy{Kind: core.Poll}},   // bad poll size
		{Directory: d, Service: "svc", Policy: core.NewBroadcast(time.Second)}, // unsupported
		{Directory: d, Service: "svc", Policy: core.NewIdeal()},                // no manager
	}
	for i, cfg := range cases {
		if _, err := NewClient(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestClientNoEndpoints(t *testing.T) {
	d := NewDirectory(time.Minute)
	c := newTestClient(t, d, core.NewRandom(), "")
	if _, err := c.Access(100, nil); err == nil {
		t.Fatal("access with no endpoints succeeded")
	}
}

func TestClientRandomAccess(t *testing.T) {
	d, _ := testCluster(t, 4, false)
	c := newTestClient(t, d, core.NewRandom(), "")
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		info, err := c.Access(100, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if info.Resp.Status != StatusOK {
			t.Fatalf("status %d", info.Resp.Status)
		}
		seen[info.Server] = true
	}
	if len(seen) != 4 {
		t.Fatalf("random policy used %d/4 servers", len(seen))
	}
}

// TestClientAccessMountedHandler sends Client.Access to nodes whose
// service is a mounted Handler: the handler sees the client's
// partition, its payload comes back in info.Resp, and an application
// error is a reply status, not an access failure.
func TestClientAccessMountedHandler(t *testing.T) {
	const partition = 7
	d := NewDirectory(time.Minute)
	var (
		mu     sync.Mutex
		served = map[int]int{}
		parts  = map[uint32]int{}
	)
	for i := 0; i < 2; i++ {
		id := i
		startTestNode(t, NodeConfig{
			ID: id, Service: "svc", Partitions: []uint32{partition}, Directory: d, Seed: uint64(id),
			Handler: HandlerFunc(func(req *Request) ([]byte, uint8) {
				mu.Lock()
				served[id]++
				parts[req.Partition]++
				mu.Unlock()
				if string(req.Payload) == "fail" {
					return []byte("no such key"), StatusAppError
				}
				return []byte(fmt.Sprintf("%d:%s", id, req.Payload)), StatusOK
			}),
		})
	}
	c, err := NewClient(ClientConfig{
		Directory: d, Service: "svc", Partition: partition, Policy: core.NewPoll(2), Seed: 42,
		Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const accesses = 40
	for i := 0; i < accesses; i++ {
		info, err := c.Access(0, []byte("hi"))
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%d:hi", info.Server)
		if info.Resp.Status != StatusOK || string(info.Resp.Payload) != want {
			t.Fatalf("access %d: status %d payload %q, want %d %q",
				i, info.Resp.Status, info.Resp.Payload, StatusOK, want)
		}
	}
	info, err := c.Access(0, []byte("fail"))
	if err != nil {
		t.Fatalf("application error surfaced as access error: %v", err)
	}
	if info.Resp.Status != StatusAppError || string(info.Resp.Payload) != "no such key" {
		t.Fatalf("app error reply: status %d payload %q", info.Resp.Status, info.Resp.Payload)
	}

	mu.Lock()
	defer mu.Unlock()
	if parts[partition] != accesses+1 || len(parts) != 1 {
		t.Fatalf("handler partitions %v, want all %d accesses on %d", parts, accesses+1, partition)
	}
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("poll 2 reached only one handler: %v", served)
	}
}

func TestClientRoundRobinAccess(t *testing.T) {
	d, _ := testCluster(t, 3, false)
	c := newTestClient(t, d, core.NewRoundRobin(), "")
	var order []int
	for i := 0; i < 6; i++ {
		info, err := c.Access(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		order = append(order, info.Server)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round robin order %v", order)
		}
	}
}

func TestClientPollAccess(t *testing.T) {
	d, nodes := testCluster(t, 8, false)
	c := newTestClient(t, d, core.NewPoll(3), "")
	info, err := c.Access(500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Polled != 3 {
		t.Fatalf("polled %d, want 3", info.Polled)
	}
	if info.Answered != 3 || info.Discarded != 0 {
		t.Fatalf("answered %d discarded %d", info.Answered, info.Discarded)
	}
	if info.PollTime <= 0 {
		t.Fatal("no poll time measured")
	}
	if len(info.PollRTTs) != 3 {
		t.Fatalf("poll RTTs %v", info.PollRTTs)
	}
	total := int64(0)
	for _, n := range nodes {
		total += n.Stats().Inquiries
	}
	if total != 3 {
		t.Fatalf("nodes answered %d inquiries, want 3", total)
	}
}

func TestClientPollPrefersIdleServer(t *testing.T) {
	d, nodes := testCluster(t, 2, false)
	c := newTestClient(t, d, core.NewPoll(2), "")
	// Make node 0 busy with a long job via a direct connection.
	_, r, w := dialNode(t, nodes[0])
	if err := WriteRequest(w, &Request{ID: 1, Service: "svc", ServiceUs: 400000}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return nodes[0].LoadIndex() == 1 }, "node 0 to become busy")
	// Polling both servers must route every access to idle node 1.
	for i := 0; i < 10; i++ {
		info, err := c.Access(100, nil)
		if err != nil {
			t.Fatal(err)
		}
		if info.Server != 1 {
			t.Fatalf("access %d went to busy server", i)
		}
	}
	if _, err := ReadResponse(r); err != nil {
		t.Fatal(err)
	}
}

func TestClientPollDiscard(t *testing.T) {
	// One of two nodes always answers slowly; with a tight discard
	// threshold the slow answer is abandoned but accesses still work.
	dir := NewDirectory(time.Minute)
	fast, err := StartNode(NodeConfig{
		ID: 0, Service: "svc", Directory: dir, SlowProb: -1,
		Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fast.Close() })
	slow, err := StartNode(NodeConfig{
		ID: 1, Service: "svc", Directory: dir,
		SlowProb: 1, SlowDist: stats.Deterministic{Value: 0.2},
		Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Close() })

	// Keep the slow node busy so its slow path triggers.
	_, r, w := dialNode(t, slow)
	if err := WriteRequest(w, &Request{ID: 1, Service: "svc", ServiceUs: 900000}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return slow.LoadIndex() == 1 }, "the slow node to become busy")

	c, err := NewClient(ClientConfig{
		Directory: dir, Service: "svc",
		Policy: core.NewPollDiscard(2, 30*time.Millisecond), Seed: 7,
		Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	info, err := c.Access(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Discarded != 1 || info.Answered != 1 {
		t.Fatalf("answered %d discarded %d, want 1/1", info.Answered, info.Discarded)
	}
	if info.Server != 0 {
		t.Fatalf("picked server %d, want the fast idle one", info.Server)
	}
	if info.PollTime > 60*time.Millisecond {
		t.Fatalf("poll time %v not bounded by discard threshold", info.PollTime)
	}
	if _, err := ReadResponse(r); err != nil {
		t.Fatal(err)
	}
}

func TestClientIdealViaManager(t *testing.T) {
	d, _ := testCluster(t, 4, false)
	m, err := StartIdealManager(testTransport(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	c := newTestClient(t, d, core.NewIdeal(), m.Addr())

	var wg sync.WaitGroup
	counts := make([]int, 4)
	var mu sync.Mutex
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := c.Access(20000, nil)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			counts[info.Server]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	// A shortest-queue manager spreads 40 concurrent accesses evenly.
	for i, got := range counts {
		if got < 5 || got > 15 {
			t.Fatalf("ideal balance skewed: server %d got %d/40 (%v)", i, got, counts)
		}
	}
	// All queues drained.
	for i, v := range m.Counts() {
		if v != 0 {
			t.Fatalf("manager count %d = %d after completion", i, v)
		}
	}
}

// TestClientIdealStalledManager checks that a manager which accepts
// the connection and never answers fails the access once the access
// timeout passes, instead of blocking it forever.
func TestClientIdealStalledManager(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the 10 s access timeout")
	}
	tr := testTransport(t)
	ln, err := tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			_ = conn.Close()
		}
	})
	c, err := NewClient(ClientConfig{
		Service: "svc", Policy: core.NewIdeal(), ManagerAddr: ln.Addr(),
		Directory: FixedDirectory{{NodeID: 0, Service: "svc", AccessAddr: ln.Addr()}},
		Transport: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	errc := make(chan error, 1)
	go func() {
		_, err := c.Access(0, nil)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("access through a silent manager succeeded")
		}
	case <-time.After(accessTimeout + 5*time.Second):
		t.Fatalf("access still blocked on a silent manager after %v", accessTimeout+5*time.Second)
	}
}

// TestClientDispatchesCountedOnce checks the dispatch accounting that
// Access and AccessNode share: each adds exactly one dispatch, and a
// failed AccessNode quarantines its node just as a failed Access does,
// so following policy accesses avoid it.
func TestClientDispatchesCountedOnce(t *testing.T) {
	d, nodes := testCluster(t, 3, false)
	metrics := obs.NewRunMetrics(nil)
	c, err := NewClient(ClientConfig{
		Directory: d, Service: "svc", Policy: core.NewRandom(),
		Metrics: metrics, Seed: 5, Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	want := int64(0)
	for i := 0; i < 6; i++ {
		if _, err := c.Access(0, nil); err != nil {
			t.Fatal(err)
		}
		want++
		if got := metrics.Dispatches.Value(); got != want {
			t.Fatalf("after Access: %d dispatches, want %d", got, want)
		}
		if _, err := c.AccessNode(i%len(nodes), 0, nil); err != nil {
			t.Fatal(err)
		}
		want++
		if got := metrics.Dispatches.Value(); got != want {
			t.Fatalf("after AccessNode: %d dispatches, want %d", got, want)
		}
	}

	// Node 1 dies but its directory entry lives on (one-minute TTL).
	nodes[1].Close()
	quarantines := metrics.Quarantines.Value()
	if _, err := c.AccessNode(1, 0, nil); err == nil {
		t.Fatal("AccessNode to a closed node succeeded")
	}
	want++
	if got := metrics.Dispatches.Value(); got != want {
		t.Fatalf("after a failed AccessNode: %d dispatches, want %d", got, want)
	}
	if got := metrics.Quarantines.Value(); got != quarantines+1 {
		t.Fatalf("failed AccessNode quarantined %d servers, want 1", got-quarantines)
	}
	for i := 0; i < 30; i++ {
		info, err := c.Access(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if info.Server == 1 {
			t.Fatalf("access %d routed to the quarantined node", i)
		}
	}
	if got := metrics.Dispatches.Value(); got != want+30 {
		t.Fatalf("30 accesses after the quarantine: %d dispatches, want %d", got-want, 30)
	}
}

func TestClientSurvivesNodeCrash(t *testing.T) {
	d, nodes := testCluster(t, 3, false)
	c, err := NewClient(ClientConfig{
		Directory: d, Service: "svc", Policy: core.NewPollDiscard(2, 50*time.Millisecond),
		RefreshInterval: 20 * time.Millisecond, Seed: 3,
		Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Kill node 0; its directory entry expires after the TTL. Until the
	// client refreshes, some accesses may fail; afterwards all succeed.
	nodes[0].Close()
	// Force expiry: use a directory with short TTL instead of waiting a
	// minute — re-publish the two live nodes into a fresh view by
	// waiting for refresh on a directory whose entry for node 0 is
	// removed manually (simulate soft-state expiry).
	d.mu.Lock()
	delete(d.entries, dirKey{0, "svc"})
	d.mu.Unlock()
	waitUntil(t, func() bool { return len(c.Endpoints()) == 2 }, "the client to drop the dead endpoint")

	for i := 0; i < 20; i++ {
		info, err := c.Access(100, nil)
		if err != nil {
			t.Fatalf("access %d failed after failover: %v", i, err)
		}
		if info.Server == 0 {
			t.Fatalf("access routed to dead node")
		}
	}
}

func TestClientLocalLeast(t *testing.T) {
	d, _ := testCluster(t, 3, false)
	c := newTestClient(t, d, core.NewLocalLeast(), "")
	// Sequential accesses with zero outstanding anywhere spread by
	// uniform tie-break; just verify they succeed and stay in range.
	seen := map[int]bool{}
	for i := 0; i < 30; i++ {
		info, err := c.Access(100, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[info.Server] = true
	}
	if len(seen) < 2 {
		t.Fatalf("least-conn stuck on one server: %v", seen)
	}
	// Concurrent accesses must spread across all nodes: each in-flight
	// access bumps its server's count, steering the next one away.
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	for i := 0; i < 30; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := c.Access(30000, nil)
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			counts[info.Server]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(counts) != 3 {
		t.Fatalf("concurrent least-conn used %d/3 servers: %v", len(counts), counts)
	}
}
