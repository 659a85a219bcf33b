package cluster

import (
	"bufio"
	"net"
	"sync"
	"testing"
	"time"

	"finelb/internal/stats"
	"finelb/internal/transport"
)

// startTestNode starts a node with the contention model disabled so
// load answers are prompt and deterministic.
func startTestNode(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	if cfg.SlowProb == 0 {
		cfg.SlowProb = -1 // disabled
	}
	if cfg.Transport == nil {
		cfg.Transport = testTransport(t)
	}
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// dialNode opens a raw client connection to a node, through the
// node's own transport so the test works on the in-memory fabric too.
func dialNode(t *testing.T, n *Node) (net.Conn, *bufio.Reader, *bufio.Writer) {
	t.Helper()
	c, err := n.Transport().Dial(n.AccessAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, bufio.NewReader(c), bufio.NewWriter(c)
}

// dialLoad opens a raw datagram connection to a node's load-index
// server.
func dialLoad(t *testing.T, n *Node) transport.PacketConn {
	t.Helper()
	conn, err := n.Transport().DialPacket(n.LoadAddr(), transport.NoLink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestNodeServesRequest(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	_, r, w := dialNode(t, n)
	req := &Request{ID: 5, Service: "svc", ServiceUs: 1000, Payload: []byte("ping")}
	if err := WriteRequest(w, req); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := ReadResponse(r)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 5 || resp.Status != StatusOK {
		t.Fatalf("response %+v", resp)
	}
	if string(resp.Payload) != "ping" {
		t.Fatalf("echo payload %q", resp.Payload)
	}
	if d := time.Since(start); d < time.Millisecond {
		t.Fatalf("service emulation too fast: %v", d)
	}
	if s := n.Stats(); s.Served != 1 {
		t.Fatalf("served = %d", s.Served)
	}
}

func TestNodeRejectsWrongService(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	_, r, w := dialNode(t, n)
	if err := WriteRequest(w, &Request{ID: 1, Service: "other"}); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(r)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusNoService {
		t.Fatalf("status %d", resp.Status)
	}
}

func TestNodeLoadIndexTracksActiveWork(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc", Workers: 1})
	if n.LoadIndex() != 0 {
		t.Fatalf("idle load index %d", n.LoadIndex())
	}
	// Launch 3 concurrent 80 ms requests on separate connections.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, r, w := dialNode(t, n)
			if err := WriteRequest(w, &Request{ID: uint64(i), Service: "svc", ServiceUs: 80000}); err != nil {
				t.Error(err)
				return
			}
			if _, err := ReadResponse(r); err != nil {
				t.Error(err)
			}
		}()
	}
	waitUntil(t, func() bool { return n.LoadIndex() == 3 }, "all three accesses to become active")
	wg.Wait()
	// The final decrement may land just after the last response is read.
	waitUntil(t, func() bool { return n.LoadIndex() == 0 }, "load index to drain")
}

func TestNodeWorkerPoolParallelism(t *testing.T) {
	// With 2 workers, two 100 ms jobs finish in ~100 ms, not 200.
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc", Workers: 2})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, r, w := dialNode(t, n)
			if err := WriteRequest(w, &Request{ID: uint64(i), Service: "svc", ServiceUs: 100000}); err != nil {
				t.Error(err)
				return
			}
			if _, err := ReadResponse(r); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if d := time.Since(start); d > 180*time.Millisecond {
		t.Fatalf("2 workers took %v for two parallel 100ms jobs", d)
	}
}

func TestNodeOverload(t *testing.T) {
	// QueueCap 1 with one busy worker: the first request occupies the
	// worker, the second queues, the third is refused.
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc", Workers: 1, QueueCap: 1})
	_, r1, w1 := dialNode(t, n)
	if err := WriteRequest(w1, &Request{ID: 1, Service: "svc", ServiceUs: 200000}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return n.LoadIndex() == 1 && len(n.queue) == 0 },
		"the worker to pick up the first request")
	_, r2, w2 := dialNode(t, n)
	if err := WriteRequest(w2, &Request{ID: 2, Service: "svc", ServiceUs: 200000}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return n.LoadIndex() == 2 && len(n.queue) == 1 },
		"the second request to fill the queue")
	_, r3, w3 := dialNode(t, n)
	if err := WriteRequest(w3, &Request{ID: 3, Service: "svc", ServiceUs: 200000}); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(r3)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOverload {
		t.Fatalf("third request status %d, want overload", resp.Status)
	}
	if s := n.Stats(); s.Overloads != 1 {
		t.Fatalf("overloads = %d", s.Overloads)
	}
	// The first two eventually complete.
	if resp, err := ReadResponse(r1); err != nil || resp.Status != StatusOK {
		t.Fatalf("first: %+v %v", resp, err)
	}
	if resp, err := ReadResponse(r2); err != nil || resp.Status != StatusOK {
		t.Fatalf("second: %+v %v", resp, err)
	}
}

func TestNodeAnswersLoadInquiries(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	conn := dialLoad(t, n)
	if _, err := conn.Write(EncodeInquiry(nil, 77)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 64)
	m, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	seq, load, err := DecodeLoad(buf[:m])
	if err != nil || seq != 77 || load != 0 {
		t.Fatalf("load answer seq=%d load=%d err=%v", seq, load, err)
	}
}

func TestNodeLoadInquiryReflectsQueue(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	// Occupy the node with a long job.
	_, rr, w := dialNode(t, n)
	if err := WriteRequest(w, &Request{ID: 1, Service: "svc", ServiceUs: 150000}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return n.LoadIndex() == 1 }, "the long job to become active")

	conn := dialLoad(t, n)
	if _, err := conn.Write(EncodeInquiry(nil, 1)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 64)
	m, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	_, load, err := DecodeLoad(buf[:m])
	if err != nil || load != 1 {
		t.Fatalf("busy load = %d (err %v), want 1", load, err)
	}
	if _, err := ReadResponse(rr); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSlowPathDelaysAnswer(t *testing.T) {
	n := startTestNode(t, NodeConfig{
		ID: 1, Service: "svc",
		SlowProb: 1.0, // always slow when busy
		SlowDist: stats.Deterministic{Value: 0.08},
	})
	// Make the node busy.
	_, rr, w := dialNode(t, n)
	if err := WriteRequest(w, &Request{ID: 1, Service: "svc", ServiceUs: 300000}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return n.LoadIndex() == 1 }, "the long job to become active")

	conn := dialLoad(t, n)
	start := time.Now()
	if _, err := conn.Write(EncodeInquiry(nil, 9)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("slow-path answer arrived in %v, want >= ~80ms", d)
	}
	if s := n.Stats(); s.SlowPaths == 0 {
		t.Fatal("slow path not counted")
	}
	if _, err := ReadResponse(rr); err != nil {
		t.Fatal(err)
	}
}

func TestNodePublishesSoftState(t *testing.T) {
	d := NewDirectory(time.Second)
	n := startTestNode(t, NodeConfig{
		ID: 3, Service: "svc", Directory: d, PublishInterval: 20 * time.Millisecond,
	})
	eps, _ := d.Lookup("svc", 0)
	if len(eps) != 1 || eps[0].NodeID != 3 {
		t.Fatalf("initial publish missing: %+v", eps)
	}
	if eps[0].AccessAddr != n.AccessAddr() || eps[0].LoadAddr != n.LoadAddr() {
		t.Fatal("published addresses wrong")
	}
}

func TestNodeCloseIsIdempotentAndPrompt(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	// An idle open connection must not block Close.
	c, _, _ := dialNode(t, n)
	_ = c
	done := make(chan struct{})
	go func() {
		n.Close()
		n.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung")
	}
}

func TestSpinFor(t *testing.T) {
	start := time.Now()
	spinFor(20 * time.Millisecond)
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("spinFor returned after %v", d)
	}
}

func TestNodeSpinMode(t *testing.T) {
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc", Spin: true})
	_, r, w := dialNode(t, n)
	start := time.Now()
	if err := WriteRequest(w, &Request{ID: 1, Service: "svc", ServiceUs: 10000}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResponse(r); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("spin service finished in %v", d)
	}
}

func TestSleeperLongRunRateIsAccurate(t *testing.T) {
	// 100 jobs of 2 ms must take ~200 ms despite per-sleep overshoot.
	var sl sleeper
	const n = 100
	d := 2 * time.Millisecond
	start := time.Now()
	for i := 0; i < n; i++ {
		sl.sleep(d)
	}
	total := time.Since(start)
	want := time.Duration(n) * d
	if total < want*95/100 || total > want*115/100 {
		t.Fatalf("100 x 2ms jobs took %v, want ~%v", total, want)
	}
}

func TestSleeperHandlesSubMillisecondJobs(t *testing.T) {
	// Jobs shorter than the kernel overshoot still average out.
	var sl sleeper
	const n = 200
	d := 300 * time.Microsecond
	start := time.Now()
	for i := 0; i < n; i++ {
		sl.sleep(d)
	}
	total := time.Since(start)
	want := time.Duration(n) * d
	if total < want*90/100 || total > want*130/100 {
		t.Fatalf("200 x 0.3ms jobs took %v, want ~%v", total, want)
	}
}

func TestSleeperZeroDuration(t *testing.T) {
	var sl sleeper
	start := time.Now()
	sl.sleep(0)
	sl.sleep(-time.Millisecond)
	if time.Since(start) > 5*time.Millisecond {
		t.Fatal("zero/negative sleep slept")
	}
}
