package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"finelb/internal/stats"
)

// MemConfig parameterizes the in-memory fabric's ambient network
// model. The model applies to datagrams (the unreliable plane: load
// inquiries, directory traffic); streams are reliable, socket-like
// byte streams with no modeled latency, so access response times are
// dominated by service time exactly as on loopback TCP. Injected
// per-link faults are a separate mechanism, replayed by the cluster
// client's poll fan-out, and work identically on both transports.
type MemConfig struct {
	// Seed drives the loss draws; the same seed and the same send
	// sequence replay the same deliveries.
	Seed uint64
	// Latency is the base one-way datagram delay (default 0: delivery
	// on the sender's goroutine).
	Latency time.Duration
	// Loss is the probability a datagram silently disappears.
	Loss float64
}

// Mem is the in-process transport: a channel fabric carrying
// datagrams between registered endpoints and byte streams (memConn)
// between dialers and listeners. Like a TCP socket, a stream buffers
// each direction (up to 64 KiB), so a Write waits for buffer space,
// never for the reader, and a closed end's peer reads what was sent
// before it sees EOF. The fabric needs no file descriptors, so
// cluster size is bounded by memory, not OS socket limits, and with
// zero Latency/Loss its behavior is independent of wall-clock timing.
//
// An undelayed datagram is delivered on the sender's goroutine: a
// receiver with a PacketHandler (a node's load socket) runs it there,
// and a reader (a client's poll-round socket) finds the datagram in
// its inbox when it next reads, on ReadFrom's non-blocking fast path.
// A zero-latency poll round therefore never parks: every answer is
// queued before the round's fan-out returns.
//
// One Mem value is one isolated network; components can only reach
// addresses issued by the same fabric.
type Mem struct {
	cfg MemConfig

	mu        sync.Mutex
	rng       *stats.RNG
	next      int
	endpoints map[string]*memEndpoint
	listeners map[string]*memListener
}

// NewMem builds an isolated in-memory fabric.
func NewMem(cfg MemConfig) *Mem {
	return &Mem{
		cfg:       cfg,
		rng:       stats.NewRNG(cfg.Seed ^ 0x6d656d6661627269), // "memfabri"
		endpoints: make(map[string]*memEndpoint),
		listeners: make(map[string]*memListener),
	}
}

// nextAddr issues a fresh fabric address. Caller holds m.mu.
func (m *Mem) nextAddr() string {
	m.next++
	return fmt.Sprintf("mem:%d", m.next)
}

// memInboxCap bounds each endpoint's datagram queue; like a kernel
// socket buffer, overflow drops. Only poll-round sockets read their
// inbox (a node's load socket takes the handler path), and one holds
// at most its round's d answers plus the late answers, each one owed
// by an earlier round on the socket, that arrived while it sat idle.
// 256 slots (about 12 KB) hold sixteen 16-server rounds' worth.
const memInboxCap = 256

type memDatagram struct {
	from    string
	payload []byte
	buf     *[]byte // pool token backing payload; returned after the read copies out
}

// dgPool recycles datagram payload buffers so the fabric's per-send
// copy allocates nothing in steady state — the mem transport is the
// substrate the poll path's zero-alloc gate measures, so fabric
// overhead must hold to the same standard as the endpoints. Buffers
// are checked out in deliver, travel through the inbox inside the
// memDatagram, and return to the pool once ReadFrom has copied the
// payload into the caller's buffer (or immediately, when the
// destination is unknown or its inbox is full and UDP semantics drop
// the datagram).
var dgPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// Listen implements Transport.
func (m *Mem) Listen() (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := &memListener{
		fab:    m,
		addr:   m.nextAddr(),
		accept: make(chan net.Conn, 16),
		closed: make(chan struct{}),
	}
	m.listeners[l.addr] = l
	return l, nil
}

// Dial implements Transport. Unlike UDP sends, stream dials to an
// address with no live listener fail immediately (connection
// refused), mirroring loopback TCP.
func (m *Mem) Dial(addr string, timeout time.Duration) (net.Conn, error) {
	m.mu.Lock()
	l := m.listeners[addr]
	m.mu.Unlock()
	if l == nil {
		return nil, &net.OpError{Op: "dial", Net: "mem", Err: errors.New("connection refused: no listener at " + addr)}
	}
	c1, c2 := newMemConnPair(memAddr(addr))
	var timeoutCh <-chan time.Time
	if timeout > 0 {
		//lint:allow detclock dial timeouts bound real goroutine waits; message fates stay seeded-rng driven
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case l.accept <- c2:
		return c1, nil
	case <-l.closed:
		c1.Close()
		c2.Close()
		return nil, &net.OpError{Op: "dial", Net: "mem", Err: errors.New("connection refused: listener closed")}
	case <-timeoutCh:
		c1.Close()
		c2.Close()
		return nil, &net.OpError{Op: "dial", Net: "mem", Err: os.ErrDeadlineExceeded}
	}
}

// ListenPacket implements Transport.
func (m *Mem) ListenPacket() (PacketConn, error) {
	return m.newEndpoint(""), nil
}

// DialPacket implements Transport. Like net.DialUDP, dialing needs no
// live peer; datagrams to a dead address are silently dropped.
func (m *Mem) DialPacket(addr string, _ Link) (PacketConn, error) {
	return m.newEndpoint(addr), nil
}

// newEndpoint registers a fresh datagram endpoint. The inbox (memInboxCap
// slots) is allocated before m.mu is taken: every undelayed
// datagram resolves its destination under m.mu, so allocating under
// the lock stalls all traffic on the fabric. A client mints a poll
// round, and so an endpoint, whenever all its rounds are in flight —
// exactly when the fabric is busiest — and on a CPU-starved box that
// stall fed back into more rounds in flight until poll-2 response
// times rose fiftyfold.
func (m *Mem) newEndpoint(peer string) *memEndpoint {
	e := &memEndpoint{
		fab:    m,
		peer:   peer,
		inbox:  make(chan memDatagram, memInboxCap),
		closed: make(chan struct{}),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e.addr = m.nextAddr()
	m.endpoints[e.addr] = e
	return e
}

// deliver routes one datagram through the fabric's loss/latency model
// toward the endpoint registered at to.
func (m *Mem) deliver(from, to string, p []byte) {
	if m.cfg.Loss > 0 {
		m.mu.Lock()
		lost := m.rng.Float64() < m.cfg.Loss
		m.mu.Unlock()
		if lost {
			return
		}
	}
	if m.cfg.Latency <= 0 {
		// Undelayed delivery stays on the sender's goroutine. A receiver
		// with a handler gets the payload by reference — no copy, no
		// queue, no wakeup; a reader gets a pooled copy in its inbox.
		ep := m.resolve(to)
		if ep == nil {
			return
		}
		if h := ep.handler.Load(); h != nil {
			(*h)(p, from)
			return
		}
		bp := dgPool.Get().(*[]byte)
		*bp = append((*bp)[:0], p...)
		ep.enqueue(from, bp)
		return
	}
	bp := dgPool.Get().(*[]byte)
	*bp = append((*bp)[:0], p...)
	//lint:allow detclock the latency model maps the configured delay onto the wall clock; drop/served fates are decided above by the seeded rng
	time.AfterFunc(m.cfg.Latency, func() { m.inject(from, to, bp) })
}

// resolve looks the destination endpoint up; nil means no such
// endpoint (closed or never existed) and the datagram is dropped, as
// UDP drops it.
func (m *Mem) resolve(to string) *memEndpoint {
	m.mu.Lock()
	ep := m.endpoints[to]
	m.mu.Unlock()
	return ep
}

// inject delivers one delayed datagram (already copied into a pooled
// buffer) at its destination.
func (m *Mem) inject(from, to string, bp *[]byte) {
	ep := m.resolve(to)
	if ep == nil {
		dgPool.Put(bp)
		return
	}
	if h := ep.handler.Load(); h != nil {
		(*h)(*bp, from)
		dgPool.Put(bp)
		return
	}
	ep.enqueue(from, bp)
}

// enqueue queues a datagram for Read; a full inbox drops it, as a
// full socket buffer would.
func (e *memEndpoint) enqueue(from string, bp *[]byte) {
	select {
	case e.inbox <- memDatagram{from: from, payload: *bp, buf: bp}:
	default:
		dgPool.Put(bp)
	}
}

// memEndpoint is one datagram endpoint on the fabric.
type memEndpoint struct {
	fab  *Mem
	addr string
	peer string // fixed peer of a dialed endpoint; "" when listening

	inbox   chan memDatagram
	handler atomic.Pointer[PacketHandler] // synchronous delivery when set (HandlerPacketConn)

	mu       sync.Mutex
	deadline time.Time

	closed    chan struct{}
	closeOnce sync.Once
}

// SetPacketHandler implements HandlerPacketConn: subsequent datagrams
// are delivered by calling h — on the sender's goroutine when the
// fabric models no delay, on the timer goroutine otherwise — instead
// of queueing to the inbox. Datagrams already queued stay queued, so
// install the handler before traffic arrives.
func (e *memEndpoint) SetPacketHandler(h PacketHandler) bool {
	if h == nil {
		e.handler.Store(nil)
		return true
	}
	e.handler.Store(&h)
	return true
}

func (e *memEndpoint) ReadFrom(p []byte) (int, string, error) {
	// Fast path: a datagram is already queued. The nonblocking receive
	// skips the full select (and any deadline timer) entirely, which is
	// most of the per-hop cost when readers keep up with senders.
	select {
	case dg := <-e.inbox:
		n := copy(p, dg.payload)
		if dg.buf != nil {
			dgPool.Put(dg.buf)
		}
		return n, dg.from, nil
	default:
	}
	e.mu.Lock()
	deadline := e.deadline
	e.mu.Unlock()
	var timeoutCh <-chan time.Time
	if !deadline.IsZero() {
		//lint:allow detclock read deadlines honor net-style wall-clock semantics callers set explicitly
		d := time.Until(deadline)
		if d <= 0 {
			return 0, "", os.ErrDeadlineExceeded
		}
		//lint:allow detclock read deadlines honor net-style wall-clock semantics callers set explicitly
		t := time.NewTimer(d)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case dg := <-e.inbox:
		n := copy(p, dg.payload)
		if dg.buf != nil {
			dgPool.Put(dg.buf)
		}
		return n, dg.from, nil
	case <-e.closed:
		return 0, "", net.ErrClosed
	case <-timeoutCh:
		return 0, "", os.ErrDeadlineExceeded
	}
}

func (e *memEndpoint) Read(p []byte) (int, error) {
	for {
		n, from, err := e.ReadFrom(p)
		if err != nil {
			return n, err
		}
		// A dialed endpoint sees only its peer, like a connected socket.
		if e.peer == "" || from == e.peer {
			return n, nil
		}
	}
}

func (e *memEndpoint) WriteTo(p []byte, addr string) (int, error) {
	if e.isClosed() {
		return 0, net.ErrClosed
	}
	e.fab.deliver(e.addr, addr, p)
	return len(p), nil
}

func (e *memEndpoint) Write(p []byte) (int, error) {
	if e.peer == "" {
		return 0, errors.New("transport: Write on an unconnected packet endpoint")
	}
	return e.WriteTo(p, e.peer)
}

func (e *memEndpoint) LocalAddr() string { return e.addr }

func (e *memEndpoint) SetReadDeadline(t time.Time) error {
	e.mu.Lock()
	e.deadline = t
	e.mu.Unlock()
	return nil
}

func (e *memEndpoint) isClosed() bool {
	select {
	case <-e.closed:
		return true
	default:
		return false
	}
}

func (e *memEndpoint) Close() error {
	e.closeOnce.Do(func() {
		e.fab.mu.Lock()
		delete(e.fab.endpoints, e.addr)
		e.fab.mu.Unlock()
		close(e.closed)
	})
	return nil
}

// memListener accepts fabric stream connections.
type memListener struct {
	fab    *Mem
	addr   string
	accept chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Addr() string { return l.addr }

func (l *memListener) Close() error {
	l.once.Do(func() {
		l.fab.mu.Lock()
		delete(l.fab.listeners, l.addr)
		l.fab.mu.Unlock()
		close(l.closed)
	})
	return nil
}

// memStreamBuf bounds the unread bytes one direction of a fabric
// stream holds, as a socket buffer bounds a TCP connection's: Write
// returns once its bytes are buffered and blocks only while the buffer
// is full.
const memStreamBuf = 64 << 10

// memStreamMinBuf is a direction's first buffer. It doubles toward
// memStreamBuf only as far as the stream's unread high-water mark
// needs, so a request/response stream of a few hundred bytes never
// holds more.
const memStreamMinBuf = 1 << 10

// memAddr is a fabric address as a net.Addr.
type memAddr string

func (memAddr) Network() string  { return "mem" }
func (a memAddr) String() string { return string(a) }

// memConn is one end of a fabric stream: a socket-like byte stream
// with a bounded buffer per direction and no goroutine of its own.
// Readers are serialized, as are writers, so one Write's bytes are
// never interleaved with another's. After one end closes, the peer
// reads what is buffered and then io.EOF; its writes fail with
// io.ErrClosedPipe; every operation on the closed end fails with
// net.ErrClosed. An expired deadline fails with
// os.ErrDeadlineExceeded, and a deadline set while an operation is
// blocked takes effect at once.
type memConn struct {
	rx   *memPipe // peer → this end
	tx   *memPipe // this end → peer
	addr net.Addr // the listener's address, reported as both local and remote
}

// newMemConnPair connects two stream ends, the dialer's first.
func newMemConnPair(addr net.Addr) (*memConn, *memConn) {
	ab, ba := newMemPipe(), newMemPipe()
	return &memConn{rx: ba, tx: ab, addr: addr}, &memConn{rx: ab, tx: ba, addr: addr}
}

// memPipe is one direction of a stream.
type memPipe struct {
	rmu    sync.Mutex  // serializes reads
	rtimer *time.Timer // the reader's deadline timer, owned by the holder of rmu
	wmu    sync.Mutex  // serializes writes
	wtimer *time.Timer // the writer's deadline timer, owned by the holder of wmu

	mu sync.Mutex //lint:guards buf, r, w, rdl, wdl, rclosed, wclosed
	// Unread bytes are buf[r:w].
	buf  []byte
	r, w int
	// Deadlines of the reading and the writing end.
	rdl, wdl time.Time
	// Whether the reading or the writing end has closed.
	rclosed, wclosed bool

	// Wake channels (capacity 1) for the one blocked reader and the one
	// blocked writer. Any change a waiter could be waiting for signals
	// its channel; a waiter re-checks the state on every wake, so a
	// stale signal costs one loop.
	readable chan struct{}
	writable chan struct{}
}

func newMemPipe() *memPipe {
	return &memPipe{readable: make(chan struct{}, 1), writable: make(chan struct{}, 1)}
}

// wake signals ch without blocking; a signal already pending covers
// this one.
//
//lint:noalloc
func wake(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// untilDeadline is the wait a deadline still allows: 0 for no
// deadline, os.ErrDeadlineExceeded once it has passed.
//
//lint:noalloc
func untilDeadline(dl time.Time) (time.Duration, error) {
	if dl.IsZero() {
		return 0, nil
	}
	//lint:allow detclock stream deadlines honor net-style wall-clock semantics callers set explicitly
	d := time.Until(dl)
	if d <= 0 {
		return 0, os.ErrDeadlineExceeded
	}
	return d, nil
}

// await parks until ch is signalled or, when d > 0, until d elapses
// on the direction's reusable timer *t.
//
//lint:noalloc
func await(ch chan struct{}, t **time.Timer, d time.Duration) {
	if d == 0 {
		<-ch
		return
	}
	if *t == nil {
		//lint:allow noalloc one timer per stream direction, minted at its first deadline wait and re-armed ever after
		*t = time.NewTimer(d) //lint:allow detclock stream deadlines honor net-style wall-clock semantics callers set explicitly
	} else {
		(*t).Reset(d)
	}
	select {
	case <-ch:
		// Drain a fire that raced the wake, so the next Reset starts
		// clean under either timer-channel semantics.
		if !(*t).Stop() {
			select {
			case <-(*t).C:
			default:
			}
		}
	case <-(*t).C:
	}
}

// Read drains buffered bytes, blocking while none are buffered.
//
//lint:noalloc
func (c *memConn) Read(b []byte) (int, error) {
	p := c.rx
	p.rmu.Lock()
	defer p.rmu.Unlock()
	for {
		p.mu.Lock()
		if p.rclosed {
			p.mu.Unlock()
			return 0, net.ErrClosed
		}
		d, err := untilDeadline(p.rdl)
		if err != nil {
			p.mu.Unlock()
			return 0, err
		}
		if p.w > p.r || len(b) == 0 {
			n := copy(b, p.buf[p.r:p.w])
			p.r += n
			if p.r == p.w {
				p.r, p.w = 0, 0
			}
			p.mu.Unlock()
			wake(p.writable)
			return n, nil
		}
		if p.wclosed {
			p.mu.Unlock()
			return 0, io.EOF
		}
		p.mu.Unlock()
		await(p.readable, &p.rtimer, d)
	}
}

// Write buffers all of b, blocking while the buffer is full.
//
//lint:noalloc
func (c *memConn) Write(b []byte) (int, error) {
	p := c.tx
	p.wmu.Lock()
	defer p.wmu.Unlock()
	n := 0
	for {
		p.mu.Lock()
		if p.wclosed {
			p.mu.Unlock()
			return n, net.ErrClosed
		}
		if p.rclosed {
			p.mu.Unlock()
			return n, io.ErrClosedPipe
		}
		d, err := untilDeadline(p.wdl)
		if err != nil {
			p.mu.Unlock()
			return n, err
		}
		if free := memStreamBuf - (p.w - p.r); free > 0 {
			m := min(free, len(b)-n)
			p.reserveLocked(m)
			p.w += copy(p.buf[p.w:], b[n:n+m])
			n += m
			p.mu.Unlock()
			wake(p.readable)
			if n == len(b) {
				return n, nil
			}
			continue
		}
		p.mu.Unlock()
		await(p.writable, &p.wtimer, d)
	}
}

// reserveLocked makes room for m more bytes at buf[w:], first by
// sliding the unread bytes to the front, then by growing the buffer
// (never past memStreamBuf, since unread+m never exceeds it). Caller
// holds p.mu.
//
//lint:noalloc
func (p *memPipe) reserveLocked(m int) {
	if p.w+m <= len(p.buf) {
		return
	}
	if p.r > 0 {
		p.w = copy(p.buf, p.buf[p.r:p.w])
		p.r = 0
		if p.w+m <= len(p.buf) {
			return
		}
	}
	size := max(2*len(p.buf), memStreamMinBuf)
	for size < p.w+m {
		size *= 2
	}
	//lint:allow noalloc the buffer doubles once per doubling of the direction's unread high-water mark, capped at memStreamBuf
	buf := make([]byte, min(size, memStreamBuf))
	copy(buf, p.buf[:p.w])
	p.buf = buf
}

// Close closes this end. Its buffered input is dropped; its buffered
// output stays readable by the peer until the peer closes too.
func (c *memConn) Close() error {
	rx, tx := c.rx, c.tx
	rx.mu.Lock()
	if rx.rclosed {
		rx.mu.Unlock()
		return net.ErrClosed
	}
	rx.rclosed = true
	rx.buf, rx.r, rx.w = nil, 0, 0
	rx.mu.Unlock()
	tx.mu.Lock()
	tx.wclosed = true
	if tx.rclosed {
		tx.buf, tx.r, tx.w = nil, 0, 0
	}
	tx.mu.Unlock()
	wake(rx.readable)
	wake(rx.writable)
	wake(tx.readable)
	wake(tx.writable)
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return c.addr }
func (c *memConn) RemoteAddr() net.Addr { return c.addr }

//lint:noalloc
func (c *memConn) SetDeadline(t time.Time) error {
	if err := c.SetReadDeadline(t); err != nil {
		return err
	}
	return c.SetWriteDeadline(t)
}

//lint:noalloc
func (c *memConn) SetReadDeadline(t time.Time) error {
	p := c.rx
	p.mu.Lock()
	if p.rclosed {
		p.mu.Unlock()
		return net.ErrClosed
	}
	p.rdl = t
	p.mu.Unlock()
	wake(p.readable)
	return nil
}

//lint:noalloc
func (c *memConn) SetWriteDeadline(t time.Time) error {
	p := c.tx
	p.mu.Lock()
	if p.wclosed {
		p.mu.Unlock()
		return net.ErrClosed
	}
	p.wdl = t
	p.mu.Unlock()
	wake(p.writable)
	return nil
}
