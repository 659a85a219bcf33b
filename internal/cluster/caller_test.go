package cluster

import (
	"sync"
	"testing"
	"time"
)

func TestCallerRoundTrip(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	c := NewCaller(testTransport(t), time.Second)
	defer c.Close()
	resp, err := c.Call(n.Endpoint(), "svc", 0, 500, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || string(resp.Payload) != "ping" {
		t.Fatalf("response %+v", resp)
	}
	// Sequential calls reuse the pooled connection and keep distinct ids.
	resp2, err := c.Call(n.Endpoint(), "svc", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ID == resp.ID {
		t.Fatal("caller reused a request id")
	}
}

func TestCallerAfterClose(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	c := NewCaller(testTransport(t), time.Second)
	c.Close()
	if _, err := c.Call(n.Endpoint(), "svc", 0, 0, nil); err == nil {
		t.Fatal("call on closed caller succeeded")
	}
}

func TestCallerDefaults(t *testing.T) {
	c := NewCaller(nil, 0)
	defer c.Close()
	if c.tr == nil {
		t.Fatal("nil transport not defaulted")
	}
	if c.timeout != 10*time.Second {
		t.Fatalf("default timeout %v", c.timeout)
	}
}

func TestCallerWrongService(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	c := NewCaller(testTransport(t), time.Second)
	defer c.Close()
	resp, err := c.Call(n.Endpoint(), "other", 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusNoService {
		t.Fatalf("status %d, want NoService", resp.Status)
	}
}

// TestCallerTimesOutOnStalledNode times a call out against a paused
// node, then resumes it: the late reply to the timed-out call is
// dropped, and the next call succeeds on the same stream.
func TestCallerTimesOutOnStalledNode(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	n.Pause() // requests are accepted and queued but never served
	c := NewCaller(testTransport(t), 100*time.Millisecond)
	defer c.Close()
	start := time.Now()
	if _, err := c.Call(n.Endpoint(), "svc", 0, 0, []byte("late")); err == nil {
		t.Fatal("call against a paused node succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v, want ~100ms", d)
	}
	c.mu.Lock()
	s := c.streams[n.AccessAddr()]
	c.mu.Unlock()

	n.Resume()
	waitUntil(t, func() bool { return n.Stats().Served == 1 }, "the timed-out request to be served")
	resp, err := c.Call(n.Endpoint(), "svc", 0, 0, []byte("next"))
	if err != nil {
		t.Fatalf("call after the late reply: %v", err)
	}
	if string(resp.Payload) != "next" {
		t.Fatalf("next call got payload %q, want the late reply dropped", resp.Payload)
	}
	c.mu.Lock()
	same := c.streams[n.AccessAddr()] == s
	c.mu.Unlock()
	if !same {
		t.Error("a timed-out call closed its stream, want it kept open")
	}
}

func TestCallerConcurrentCalls(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc", Workers: 4})
	c := NewCaller(testTransport(t), 2*time.Second)
	defer c.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	ids := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Call(n.Endpoint(), "svc", 0, 1000, []byte("x"))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			ids[resp.ID] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(ids) != 10 {
		t.Fatalf("10 concurrent calls produced %d distinct ids", len(ids))
	}
}
