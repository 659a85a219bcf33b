package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"finelb/internal/transport"
)

// pconn is one pooled TCP connection with its buffered reader/writer.
type pconn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

// maxConnsPerDest caps the number of live connections one pool may
// hold toward a single destination. Beyond the cap, callers queue for a
// free connection instead of dialing — bounding file descriptors and
// turning an open-loop overload into orderly queueing rather than a
// dial storm (important on small machines; the paper's client nodes
// were similarly bounded by their thread pools).
const maxConnsPerDest = 512

// connPool is a bounded free-list of TCP connections to one address.
// Service accesses check a connection out for a full request/response
// exchange, so each connection carries at most one in-flight request;
// concurrent accesses to the same server each get their own connection,
// as the paper's multi-threaded client nodes do.
type connPool struct {
	tr          transport.Transport
	addr        string
	dialTimeout time.Duration
	now         func() time.Time // injected clock for deadline math (detclock-enforced)
	slots       chan struct{}    // one token per permitted live connection

	mu     sync.Mutex
	free   []*pconn
	closed bool
}

func newConnPool(tr transport.Transport, addr string) *connPool {
	p := &connPool{
		tr:          tr,
		addr:        addr,
		dialTimeout: 2 * time.Second,
		now:         time.Now,
		slots:       make(chan struct{}, maxConnsPerDest),
	}
	for i := 0; i < maxConnsPerDest; i++ {
		p.slots <- struct{}{}
	}
	return p
}

func (p *connPool) get() (*pconn, error) {
	// Acquire a connection slot (bounds total live connections). A free
	// slot is taken at once; only a full pool arms a timer and waits.
	select {
	case <-p.slots:
	default:
		if err := p.waitSlot(); err != nil {
			return nil, err
		}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.slots <- struct{}{}
		return nil, net.ErrClosed
	}
	if n := len(p.free); n > 0 {
		pc := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return pc, nil
	}
	p.mu.Unlock()
	c, err := p.tr.Dial(p.addr, p.dialTimeout)
	if err != nil {
		p.slots <- struct{}{}
		return nil, err
	}
	return &pconn{c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}, nil
}

// warm dials until the pool holds n idle connections, stopping at the
// first failed dial.
func (p *connPool) warm(n int) error {
	pcs := make([]*pconn, 0, n)
	defer func() {
		for _, pc := range pcs {
			p.put(pc)
		}
	}()
	for len(pcs) < n {
		pc, err := p.get()
		if err != nil {
			return err
		}
		pcs = append(pcs, pc)
	}
	return nil
}

// waitSlot blocks until a connection slot frees up, for at most
// dialTimeout. The timer is stopped on the way out, so a slot that
// frees up early leaves no timer behind.
func (p *connPool) waitSlot() error {
	t := time.NewTimer(p.dialTimeout)
	defer t.Stop()
	select {
	case <-p.slots:
		return nil
	case <-t.C:
		return fmt.Errorf("cluster: no connection slot to %s within %v", p.addr, p.dialTimeout)
	}
}

// put returns a healthy connection to the free list and releases its
// slot.
func (p *connPool) put(pc *pconn) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		pc.c.Close()
		p.slots <- struct{}{}
		return
	}
	p.free = append(p.free, pc)
	p.mu.Unlock()
	p.slots <- struct{}{}
}

// discard drops a broken connection and releases its slot.
func (p *connPool) discard(pc *pconn) {
	pc.c.Close()
	p.slots <- struct{}{}
}

func (p *connPool) closeAll() {
	p.mu.Lock()
	p.closed = true
	free := p.free
	p.free = nil
	p.mu.Unlock()
	for _, pc := range free {
		pc.c.Close()
	}
}

// roundTrip performs one request/response exchange on a pooled
// connection. On any error the connection is discarded rather than
// recycled.
func (p *connPool) roundTrip(req *Request, timeout time.Duration) (*Response, error) {
	pc, err := p.get()
	if err != nil {
		return nil, err
	}
	if timeout > 0 {
		if err := pc.c.SetDeadline(p.now().Add(timeout)); err != nil {
			p.discard(pc)
			return nil, err
		}
	}
	if err := WriteRequest(pc.w, req); err != nil {
		p.discard(pc)
		return nil, err
	}
	resp, err := ReadResponse(pc.r)
	if err != nil {
		p.discard(pc)
		return nil, err
	}
	if resp.ID != req.ID {
		p.discard(pc)
		return nil, fmt.Errorf("cluster: response id %d for request %d", resp.ID, req.ID)
	}
	if timeout > 0 {
		if err := pc.c.SetDeadline(time.Time{}); err != nil {
			p.discard(pc)
			return resp, nil
		}
	}
	p.put(pc)
	return resp, nil
}
