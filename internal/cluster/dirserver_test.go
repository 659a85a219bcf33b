package cluster

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"finelb/internal/core"
)

func startDirServer(t *testing.T, ttl time.Duration) *DirServer {
	t.Helper()
	s, err := StartDirServer(testTransport(t), nil, ttl)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialDir(t *testing.T, s *DirServer) *RemoteDirectory {
	t.Helper()
	r, err := DialDirectory(testTransport(t), s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestDirServerPublishLookup(t *testing.T) {
	s := startDirServer(t, time.Minute)
	r := dialDir(t, s)
	// A publish is a call on the node protocol: it has landed when it
	// returns.
	r.Publish(Endpoint{
		NodeID: 3, Service: "svc",
		AccessAddr: "127.0.0.1:1001", LoadAddr: "127.0.0.1:1002",
	})
	eps := lookup(t, r, "svc", 0)
	if len(eps) != 1 {
		t.Fatalf("lookup returned %+v, want one endpoint", eps)
	}
	if eps[0].NodeID != 3 || eps[0].AccessAddr != "127.0.0.1:1001" || eps[0].LoadAddr != "127.0.0.1:1002" {
		t.Fatalf("lookup returned %+v", eps[0])
	}
}

func TestDirServerPartitions(t *testing.T) {
	s := startDirServer(t, time.Minute)
	r := dialDir(t, s)
	r.Publish(Endpoint{
		NodeID: 0, Service: "img", Partitions: []uint32{0, 1, 2},
		AccessAddr: "127.0.0.1:1", LoadAddr: "127.0.0.1:2",
	})
	r.Publish(Endpoint{
		NodeID: 1, Service: "img", Partitions: []uint32{10, 11},
		AccessAddr: "127.0.0.1:3", LoadAddr: "127.0.0.1:4",
	})
	for _, c := range []struct {
		part  uint32
		node  int
		parts []uint32
	}{{1, 0, []uint32{0, 1, 2}}, {11, 1, []uint32{10, 11}}} {
		eps := lookup(t, r, "img", c.part)
		if len(eps) != 1 || eps[0].NodeID != c.node || !slices.Equal(eps[0].Partitions, c.parts) {
			t.Fatalf("lookup of partition %d returned %+v, want node %d with partitions %v", c.part, eps, c.node, c.parts)
		}
	}
}

func TestDirServerEmptyLookup(t *testing.T) {
	s := startDirServer(t, time.Minute)
	r := dialDir(t, s)
	if eps := lookup(t, r, "ghost", 0); len(eps) != 0 {
		t.Fatalf("lookup of unknown service returned %+v", eps)
	}
}

func TestDirServerSoftStateExpiry(t *testing.T) {
	// The directory's clock is the test's, so expiry is exact.
	var now atomic.Int64
	dir := NewDirectory(80 * time.Millisecond)
	dir.setClock(func() time.Time { return time.Unix(0, now.Load()) })
	s, err := StartDirServer(testTransport(t), dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	r := dialDir(t, s)
	r.Publish(Endpoint{
		NodeID: 0, Service: "svc", AccessAddr: "a:1", LoadAddr: "a:2",
	})
	now.Add(int64(50 * time.Millisecond))
	if eps := lookup(t, r, "svc", 0); len(eps) != 1 {
		t.Fatalf("entry gone before its TTL: %+v", eps)
	}
	now.Add(int64(31 * time.Millisecond))
	if eps := lookup(t, r, "svc", 0); len(eps) != 0 {
		t.Fatalf("entry survived its TTL: %+v", eps)
	}
}

func TestDirServerHandleMalformed(t *testing.T) {
	s := startDirServer(t, time.Minute)
	// A malformed request is refused and changes nothing.
	for _, payload := range []string{
		"",
		`X{"NodeID":1,"Service":"svc"}`,
		`P{"NodeID":`,
		`P{"NodeID":1,"AccessAddr":"a:1"}`,
		`W{"NodeID":1}`,
		`L{}`,
	} {
		if out, status := s.serve(&Request{Service: directoryService, Payload: []byte(payload)}); status != StatusAppError || len(out) != 0 {
			t.Errorf("serve(%q) = %q, status %d; want no payload, status %d", payload, out, status, StatusAppError)
		}
	}
	if s.Directory().Len() != 0 {
		t.Fatal("malformed publish created an entry")
	}
}

func TestRemoteDirectoryDrainWithdraws(t *testing.T) {
	// With a one-minute TTL only a withdrawal can empty the entry
	// within the test.
	s := startDirServer(t, time.Minute)
	n, err := StartNode(NodeConfig{
		ID: 5, Service: "svc", Partitions: []uint32{4, 7},
		Directory: dialDir(t, s), Transport: testTransport(t),
		SlowProb: -1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	r := dialDir(t, s)
	listed := func(when string) {
		t.Helper()
		eps := lookup(t, r, "svc", 7)
		if len(eps) != 1 || eps[0].NodeID != 5 || !slices.Equal(eps[0].Partitions, []uint32{4, 7}) {
			t.Fatalf("%s: lookup returned %+v, want node 5 with partitions [4 7]", when, eps)
		}
	}
	listed("after start")
	n.Drain()
	if eps := lookup(t, r, "svc", 7); len(eps) != 0 {
		t.Fatalf("drained node still listed: %+v", eps)
	}
	n.Rejoin()
	listed("after rejoin")
}

func TestRemoteDirectoryLateReplyDiscarded(t *testing.T) {
	s := startDirServer(t, time.Minute)
	r := dialDir(t, s)
	r.Publish(Endpoint{NodeID: 2, Service: "img", AccessAddr: "a:1", LoadAddr: "a:2"})
	// A paused directory queues the lookup and answers nothing, so the
	// call times out; the answer comes once the node resumes.
	s.node.Pause()
	if eps, err := r.Lookup("img", 0); err == nil {
		t.Fatalf("lookup of a paused directory returned %+v, want a timeout", eps)
	}
	s.node.Resume()
	// The late answer about img must not be taken for this one.
	if eps := lookup(t, r, "other", 5); len(eps) != 0 {
		t.Fatalf("lookup of an unpublished service returned %+v", eps)
	}
	if eps := lookup(t, r, "img", 0); len(eps) != 1 || eps[0].NodeID != 2 {
		t.Fatalf("lookup after resume returned %+v", eps)
	}
}

func TestRemoteDirectoryEndToEnd(t *testing.T) {
	// Full multi-component flow through the directory server: nodes
	// publish to it and a client discovers them through it, each over
	// its own RemoteDirectory, and accesses balance across them — the
	// lbdir/lbnode/lbclient topology inside one test.
	s := startDirServer(t, time.Minute)

	nodeDir := dialDir(t, s)
	var nodes []*Node
	for i := 0; i < 3; i++ {
		n, err := StartNode(NodeConfig{
			ID: i, Service: "svc", Directory: nodeDir,
			Transport:       testTransport(t),
			PublishInterval: 20 * time.Millisecond,
			SlowProb:        -1, Seed: uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		t.Cleanup(func() { n.Close() })
	}
	_ = nodes

	clientDir := dialDir(t, s)
	c, err := NewClient(ClientConfig{
		Service: "svc", Policy: core.NewPoll(2),
		Transport:       testTransport(t),
		Directory:       clientDir,
		RefreshInterval: 20 * time.Millisecond,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Wait for discovery of all three nodes.
	waitUntil(t, func() bool { return len(c.Endpoints()) >= 3 }, "the client to discover all nodes")

	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		info, err := c.Access(200, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen[info.Server] = true
	}
	if len(seen) < 2 {
		t.Fatalf("accesses did not spread: %v", seen)
	}
}
