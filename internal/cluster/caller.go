package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"finelb/internal/transport"
)

// Caller issues service requests to explicit endpoints over one
// multiplexed stream per access address (stream.go). It is the one
// stream caller of the prototype: a Client dispatches its chosen
// server's access through one, the IDEAL manager's clients reach the
// manager through one, and a RemoteDirectory reaches its directory
// server through one.
//
// Caller is safe for concurrent use. Concurrent calls to one address
// share its stream, so each of them is queued at the server, where its
// load index counts it, not on the caller.
type Caller struct {
	tr      transport.Transport
	timeout time.Duration

	//lint:guards streams, absentSince, closed
	mu      sync.Mutex
	streams map[string]*stream
	// absentSince records when a streamed access address was first
	// missing from the mapping table handed to prune; pruning waits out
	// a soft-state TTL so a starved republish (one missed heartbeat
	// under load) doesn't tear down a live stream.
	absentSince map[string]time.Time
	closed      bool

	reqID   atomic.Uint64
	readers sync.WaitGroup // the streams' reader goroutines
}

// NewCaller returns a caller whose calls go over tr (the default
// real-socket transport when nil) and time out after the given
// duration (default 10 s when not positive).
func NewCaller(tr transport.Transport, timeout time.Duration) *Caller {
	if tr == nil {
		tr = transport.Default()
	}
	if timeout <= 0 {
		timeout = accessTimeout
	}
	return &Caller{
		tr:          tr,
		timeout:     timeout,
		streams:     make(map[string]*stream),
		absentSince: make(map[string]time.Time),
	}
}

// stream checks out the stream to addr, dialing it when there is none
// or the last one broke. The checkout ends when the call made on it
// (stream.call) returns.
func (c *Caller) stream(addr string) (*stream, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errCallerClosed
	}
	s := c.streams[addr]
	fresh := s == nil || s.failure() != nil
	if fresh {
		s = newStream(addr)
		c.streams[addr] = s
	}
	s.users.Add(1)
	c.mu.Unlock()
	if fresh {
		s.dial(c.tr, &c.readers)
	}
	return s, nil
}

// Call sends one request to the endpoint's access address and returns
// the response.
func (c *Caller) Call(ep Endpoint, service string, partition uint32, serviceUs uint32, payload []byte) (*Response, error) {
	req := Request{
		ID:        c.reqID.Add(1),
		Service:   service,
		Partition: partition,
		ServiceUs: serviceUs,
		Payload:   payload,
	}
	if err := req.check(); err != nil {
		return nil, err
	}
	s, err := c.stream(ep.AccessAddr)
	if err != nil {
		return nil, err
	}
	return s.call(&req, c.timeout)
}

// callOK makes one call to a bookkeeping service (the IDEAL manager,
// the directory) and returns the reply payload. A reply whose status is
// not StatusOK is an error.
func (c *Caller) callOK(ep Endpoint, service string, partition uint32, payload []byte) ([]byte, error) {
	resp, err := c.Call(ep, service, partition, 0, payload)
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("cluster: %s answered status %d", service, resp.Status)
	}
	return resp.Payload, nil
}

// pruneGrace is how long an access address must stay missing from the
// mapping table before prune closes its stream. One soft-state TTL
// distinguishes a genuinely departed server from a republish that
// arrived late under load: a single starved heartbeat expires an entry
// for at most one publish interval, well inside the grace, while a
// drained server stays absent and is pruned one TTL after its entry
// expires.
const pruneGrace = DefaultTTL

// prune closes the streams of addresses that have been missing from
// the mapping table eps for at least pruneGrace, so an elastic pool's
// membership churn cannot accumulate connections toward departed nodes
// (the FD audit in DESIGN.md §12: one stream per live access address,
// nothing for the long dead). A stream with calls in flight survives
// until a later prune finds it idle, so a drain drops no in-flight
// work. Present addresses clear their absence mark.
func (c *Caller) prune(eps []Endpoint) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, s := range c.streams {
		if c.keepLocked(eps, addr, now) || s.users.Load() > 0 {
			continue
		}
		delete(c.streams, addr)
		delete(c.absentSince, addr)
		s.fail(net.ErrClosed)
	}
}

// keepLocked reports whether the stream to addr survives a prune
// against eps, updating the absence bookkeeping. Caller holds c.mu.
func (c *Caller) keepLocked(eps []Endpoint, addr string, now time.Time) bool {
	for i := range eps {
		if eps[i].AccessAddr == addr {
			delete(c.absentSince, addr)
			return true
		}
	}
	first, ok := c.absentSince[addr]
	if !ok {
		c.absentSince[addr] = now
		return true
	}
	return now.Sub(first) < pruneGrace
}

// Close closes every stream, failing the calls still in flight at
// once, and waits for the streams' readers to exit; later calls fail.
func (c *Caller) Close() {
	c.mu.Lock()
	streams := c.streams
	c.streams = nil
	c.closed = true
	c.mu.Unlock()
	for _, s := range streams {
		s.fail(errCallerClosed)
	}
	c.readers.Wait()
}
