package cluster

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/transport"
)

// dialCounter is a transport that counts its stream dials.
type dialCounter struct {
	transport.Transport
	dials atomic.Int64
}

func (d *dialCounter) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	d.dials.Add(1)
	return d.Transport.Dial(addr, timeout)
}

// TestAccessBurstDialsOncePerServer fires 256 concurrent accesses from
// one client at 4 servers, on both transports. Accesses to one server
// share its stream, so the whole burst dials at most one connection per
// server, and every access is queued at its server, where the load
// index counts it.
func TestAccessBurstDialsOncePerServer(t *testing.T) {
	const servers, burst = 4, 256
	for _, tc := range []struct {
		name string
		tr   transport.Transport
	}{
		{"net", transport.Net{}},
		{"mem", transport.NewMem(transport.MemConfig{Seed: 5})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var eps []Endpoint
			for i := 0; i < servers; i++ {
				n := startTestNode(t, NodeConfig{ID: i, Service: "svc", Transport: tc.tr, Seed: uint64(i + 1)})
				eps = append(eps, n.Endpoint())
			}
			tr := &dialCounter{Transport: tc.tr}
			c, err := NewClient(ClientConfig{
				Directory: FixedDirectory(eps), Service: "svc",
				Policy:          core.NewRandom(),
				QuarantineAfter: -1,
				Transport:       tr,
				Seed:            3,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			start := make(chan struct{})
			var wg sync.WaitGroup
			var failed atomic.Int64
			for i := 0; i < burst; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if _, err := c.Access(500, nil); err != nil {
						failed.Add(1)
					}
				}()
			}
			close(start)
			wg.Wait()
			if n := failed.Load(); n > 0 {
				t.Errorf("%d of %d accesses failed", n, burst)
			}
			if got := tr.dials.Load(); got > servers {
				t.Errorf("a burst of %d accesses dialed %d connections to %d servers, want at most one per server",
					burst, got, servers)
			}
		})
	}
}

// TestStreamRepliesOutOfOrder has a raw server read four requests off
// one stream and answer them in reverse order: each reply still reaches
// the call that sent its request.
func TestStreamRepliesOutOfOrder(t *testing.T) {
	const calls = 4
	tr := testTransport(t)
	ln, err := tr.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r, w := bufio.NewReader(conn), bufio.NewWriter(conn)
		var reqs []*Request
		for len(reqs) < calls {
			req, err := ReadRequest(r)
			if err != nil {
				return
			}
			reqs = append(reqs, req)
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			if WriteResponse(w, &Response{ID: reqs[i].ID, Payload: reqs[i].Payload}) != nil {
				return
			}
		}
		_, _ = io.Copy(io.Discard, r) // hold the stream open until the caller closes
	}()
	c := NewCaller(tr, 5*time.Second)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := fmt.Sprintf("call %d", i)
			resp, err := c.Call(Endpoint{AccessAddr: ln.Addr()}, "svc", 0, 0, []byte(want))
			if err != nil {
				t.Error(err)
				return
			}
			if string(resp.Payload) != want {
				t.Errorf("%s got the reply to %q", want, resp.Payload)
			}
		}()
	}
	wg.Wait()
}

// TestStreamNodeCloseFailsPendingCalls closes a node with four calls
// queued on its stream: every call fails at once rather than at its
// timeout, and the next call dials a new stream.
func TestStreamNodeCloseFailsPendingCalls(t *testing.T) {
	const calls = 4
	n := startTestNode(t, NodeConfig{ID: 1, Service: "svc"})
	n.Pause() // requests are accepted and queued but never served
	tr := &dialCounter{Transport: testTransport(t)}
	c := NewCaller(tr, 10*time.Second)
	defer c.Close()
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, err := c.Call(n.Endpoint(), "svc", 0, 0, nil)
			errs <- err
		}()
	}
	waitUntil(t, func() bool { return n.LoadIndex() == calls }, "the calls to queue at the node")
	start := time.Now()
	_ = n.Close()
	for i := 0; i < calls; i++ {
		if err := <-errs; err == nil {
			t.Error("a call pending on a closed node succeeded")
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("pending calls failed %v after Close, want at once", d)
	}
	if got := tr.dials.Load(); got != 1 {
		t.Fatalf("%d dials before Close, want 1", got)
	}
	if _, err := c.Call(n.Endpoint(), "svc", 0, 0, nil); err == nil {
		t.Error("call to a closed node succeeded")
	}
	if got := tr.dials.Load(); got != 2 {
		t.Errorf("%d dials after the stream broke, want 2 (the next call redials)", got)
	}
}
