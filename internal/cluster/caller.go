package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"finelb/internal/transport"
)

// Caller issues service requests to explicit endpoints over pooled
// stream connections, one bounded pool per access address. It is the
// one stream caller of the prototype: a Client dispatches its chosen
// server's access through one, the IDEAL manager's clients reach the
// manager through one, and a RemoteDirectory reaches its directory
// server through one.
//
// Caller is safe for concurrent use; each in-flight call holds its own
// pooled connection.
type Caller struct {
	tr      transport.Transport
	timeout time.Duration

	//lint:guards pools, absentSince, closed
	mu    sync.Mutex
	pools map[string]*connPool
	// absentSince records when a pooled access address was first
	// missing from the mapping table handed to prune; pruning waits out
	// a soft-state TTL so a starved republish (one missed heartbeat
	// under load) doesn't tear down live connections.
	absentSince map[string]time.Time
	closed      bool

	reqID atomic.Uint64
}

// NewCaller returns a caller whose calls go over tr (the default
// real-socket transport when nil) and time out after the given
// duration (default 10 s when zero).
func NewCaller(tr transport.Transport, timeout time.Duration) *Caller {
	if tr == nil {
		tr = transport.Default()
	}
	if timeout == 0 {
		timeout = accessTimeout
	}
	return &Caller{
		tr:          tr,
		timeout:     timeout,
		pools:       make(map[string]*connPool),
		absentSince: make(map[string]time.Time),
	}
}

func (c *Caller) pool(addr string) (*connPool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("cluster: caller closed")
	}
	if p, ok := c.pools[addr]; ok {
		return p, nil
	}
	p := newConnPool(c.tr, addr)
	c.pools[addr] = p
	return p, nil
}

// warm opens n idle connections to the endpoint's access address ahead
// of use (connPool.warm).
func (c *Caller) warm(ep Endpoint, n int) error {
	p, err := c.pool(ep.AccessAddr)
	if err != nil {
		return err
	}
	return p.warm(n)
}

// Call sends one request to the endpoint's access address and returns
// the response.
func (c *Caller) Call(ep Endpoint, service string, partition uint32, serviceUs uint32, payload []byte) (*Response, error) {
	p, err := c.pool(ep.AccessAddr)
	if err != nil {
		return nil, err
	}
	req := &Request{
		ID:        c.reqID.Add(1),
		Service:   service,
		Partition: partition,
		ServiceUs: serviceUs,
		Payload:   payload,
	}
	return p.roundTrip(req, c.timeout)
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
// mapping table before prune closes its connections. One soft-state TTL
// distinguishes a genuinely departed server from a republish that
// arrived late under load: a single starved heartbeat expires an entry
// for at most one publish interval, well inside the grace, while a
// drained server stays absent and is pruned one TTL after its entry
// expires.
const pruneGrace = DefaultTTL

// prune closes the connection pools of addresses that have been
// missing from the mapping table eps for at least pruneGrace, so an
// elastic pool's membership churn cannot accumulate connections toward
// departed nodes (the FD audit in DESIGN.md §12: one bounded TCP pool
// per live access address, nothing for the long dead). Present
// addresses clear their absence mark.
func (c *Caller) prune(eps []Endpoint) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for addr, p := range c.pools {
		if c.keepLocked(eps, addr, now) {
			continue
		}
		delete(c.pools, addr)
		p.closeAll()
	}
}

// keepLocked reports whether the pool for addr survives a prune against
// eps, updating the absence bookkeeping. Caller holds c.mu.
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
	if now.Sub(first) < pruneGrace {
		return true
	}
	delete(c.absentSince, addr)
	return false
}

// Close releases every pooled connection; later calls fail.
func (c *Caller) Close() {
	c.mu.Lock()
	pools := c.pools
	c.pools = nil
	c.closed = true
	c.mu.Unlock()
	for _, p := range pools {
		p.closeAll()
	}
}
