package cluster

import (
	"testing"
	"time"
)

func TestConnPoolReusesConnections(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	p := newConnPool(testTransport(t), n.AccessAddr())
	defer p.closeAll()

	pc1, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	p.put(pc1)
	pc2, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	if pc1 != pc2 {
		t.Fatal("pool did not reuse the idle connection")
	}
	p.put(pc2)
}

func TestConnPoolDiscardReleasesSlot(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	p := newConnPool(testTransport(t), n.AccessAddr())
	defer p.closeAll()

	// Churn through more connections than the cap; discarding each must
	// release its slot or this loop would block at maxConnsPerDest.
	for i := 0; i < maxConnsPerDest+10; i++ {
		pc, err := p.get()
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		p.discard(pc)
	}
}

func TestConnPoolBoundsConcurrentConnections(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	p := newConnPool(testTransport(t), n.AccessAddr())
	p.dialTimeout = 200 * time.Millisecond
	defer p.closeAll()

	// Exhaust every slot without returning any.
	held := make([]*pconn, 0, maxConnsPerDest)
	for i := 0; i < maxConnsPerDest; i++ {
		pc, err := p.get()
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		held = append(held, pc)
	}
	// The next get must time out rather than dial an unbounded socket.
	if _, err := p.get(); err == nil {
		t.Fatal("get beyond the connection cap succeeded")
	}
	// Returning one connection unblocks the pool.
	p.put(held[0])
	pc, err := p.get()
	if err != nil {
		t.Fatalf("get after put: %v", err)
	}
	p.put(pc)
	for _, pc := range held[1:] {
		p.put(pc)
	}
}

// TestConnPoolGetPutZeroAllocs: checking a connection out of a warm
// pool and back in allocates nothing — no per-access timer or dial.
func TestConnPoolGetPutZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	p := newConnPool(testTransport(t), n.AccessAddr())
	defer p.closeAll()
	pc, err := p.get()
	if err != nil {
		t.Fatal(err)
	}
	p.put(pc)
	avg := testing.AllocsPerRun(1000, func() {
		pc, err := p.get()
		if err != nil {
			t.Fatal(err)
		}
		p.put(pc)
	})
	if avg != 0 {
		t.Errorf("get/put on a warm pool allocates %.2f allocs/op, want 0", avg)
	}
}

func TestConnPoolGetAfterClose(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	p := newConnPool(testTransport(t), n.AccessAddr())
	p.closeAll()
	if _, err := p.get(); err == nil {
		t.Fatal("get on closed pool succeeded")
	}
}
