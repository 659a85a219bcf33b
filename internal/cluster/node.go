package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"finelb/internal/obs"
	"finelb/internal/stats"
	"finelb/internal/transport"
)

// NodeConfig configures a server node.
type NodeConfig struct {
	ID         int
	Service    string
	Partitions []uint32

	// Transport is the messaging substrate the node listens on
	// (default transport.Net, real loopback sockets).
	Transport transport.Transport

	// Workers is the service worker pool size (§3.1). Default 1, which
	// makes the node one non-preemptive processing unit as in the
	// simulation model.
	Workers int
	// QueueCap bounds the request queue; excess requests are refused
	// with StatusOverload. Default 4096.
	QueueCap int
	// Spin burns CPU for the service duration instead of sleeping,
	// matching the paper's CPU-spinning microbenchmark exactly (at the
	// cost of real CPU contention between in-process nodes).
	Spin bool

	// Handler, when non-nil, replaces the sleep/spin emulation with a
	// real service implementation: the worker invokes it for every
	// request, and its result becomes the response. This is how the
	// Neptune-style replicated services (internal/neptune) mount real
	// application logic on a node. While the handler runs it occupies
	// one worker — a non-preemptive processing unit, as in the paper's
	// model.
	Handler Handler

	// Directory, when non-nil, receives periodic soft-state publishes
	// and the node's withdrawal when it drains.
	Directory       ServiceDirectory
	PublishInterval time.Duration // default DefaultTTL / 4

	// Load-inquiry contention model (DESIGN.md "Prototype contention
	// model"): when the node has active work, an inquiry's answer is
	// delayed with probability SlowProb by a sample from SlowDist.
	SlowProb float64    // default DefaultSlowProb; negative disables
	SlowDist stats.Dist // seconds; default lognormal mean/σ 18 ms

	// Metrics is the run's shared obs.RunMetrics catalog (queue depth,
	// worker occupancy, inquiry counters). Nil gets a private catalog so
	// the hot paths stay branch-free; pass the run's to aggregate
	// across nodes (RunExperiment does).
	Metrics *obs.RunMetrics

	Seed uint64
}

// Contention-model defaults, calibrated against the paper's §3.2
// profile (≈8.1% of polls over 10 ms at 90% load with poll size 3).
const DefaultSlowProb = 0.15

// DefaultSlowDist returns the default scheduling-delay distribution.
func DefaultSlowDist() stats.Dist {
	return stats.LognormalFromMoments(18e-3, 18e-3)
}

// Handler is a real service implementation mounted on a node. Serve
// runs on a worker goroutine; it must be safe for concurrent use when
// the node has more than one worker.
type Handler interface {
	Serve(req *Request) (payload []byte, status uint8)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req *Request) ([]byte, uint8)

// Serve implements Handler.
func (f HandlerFunc) Serve(req *Request) ([]byte, uint8) { return f(req) }

// NodeStats are monotonic counters exposed for experiments.
type NodeStats struct {
	Served    int64 // requests completed
	Overloads int64 // requests refused with StatusOverload
	Inquiries int64 // load inquiries answered
	Dropped   int64 // load inquiries dropped while paused
	SlowPaths int64 // inquiries answered through the delayed path
}

// Node is a server node: TCP service access point, request queue and
// worker pool, and UDP load-index server.
type Node struct {
	cfg NodeConfig

	ln       transport.Listener
	loadConn transport.PacketConn

	load loadTable // load index: accesses accepted and not yet answered

	queue chan nodeTask
	wg    sync.WaitGroup
	done  chan struct{}
	once  sync.Once
	// gaugeDrain settles the shared gauges once after shutdown: accesses
	// still queued when a node dies take their load-index contribution
	// with them.
	gaugeDrain sync.Once

	// Pause support (fault injection): while paused the node accepts and
	// queues requests but serves nothing, answers no load inquiries, and
	// stops heartbeating — a stalled process, not a dead one.
	paused atomic.Bool
	//lint:guards unpause
	pauseMu sync.Mutex
	unpause chan struct{} // closed when not paused

	// Drain support (elastic membership): a draining node stops
	// publishing heartbeats and withdraws its directory entries, so new
	// work stops arriving, but keeps serving everything already queued
	// and everything still routed to it by stale mapping tables — the
	// graceful half of a scale-down, as opposed to Pause's stall.
	draining atomic.Bool
	// pubMu orders publishes against Drain's withdrawal, so a heartbeat
	// already under way cannot list a drained node again.
	pubMu sync.Mutex

	//lint:guards conns
	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// Load-inquiry state shared by the synchronous handler path and the
	// read-loop fallback. inqMu serializes only the contention-model
	// rng draws across sender goroutines — never the reply write, so
	// concurrent pollers to one node don't convoy behind each other's
	// delivery chains. The read-loop fallback is a single goroutine, so
	// there it is uncontended.
	//lint:guards inqRNG
	inqMu  sync.Mutex
	inqRNG *stats.RNG

	served    atomic.Int64
	overloads atomic.Int64
	inquiries atomic.Int64
	dropped   atomic.Int64
	slowPaths atomic.Int64
}

type nodeTask struct {
	req  *Request
	conn *nodeConn
}

// nodeConn wraps one accepted connection with a write lock so worker
// goroutines can interleave responses safely.
type nodeConn struct {
	c net.Conn
	//lint:guards w
	mu sync.Mutex
	w  *bufio.Writer
}

func (nc *nodeConn) writeResponse(resp *Response) error {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	return WriteResponse(nc.w, resp)
}

// StartNode binds the node's stream and datagram listeners on its
// transport and starts the accept loop, worker pool, load-index
// server, and publisher.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Transport == nil {
		cfg.Transport = transport.Default()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("cluster: Workers = %d", cfg.Workers)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 4096
	}
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("cluster: QueueCap = %d", cfg.QueueCap)
	}
	if cfg.SlowProb == 0 {
		cfg.SlowProb = DefaultSlowProb
	}
	if cfg.SlowProb < 0 {
		cfg.SlowProb = 0
	}
	if cfg.SlowDist == nil {
		cfg.SlowDist = DefaultSlowDist()
	}
	if cfg.PublishInterval == 0 {
		cfg.PublishInterval = DefaultTTL / 4
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRunMetrics(nil)
	}

	ln, err := cfg.Transport.Listen()
	if err != nil {
		return nil, err
	}
	loadConn, err := cfg.Transport.ListenPacket()
	if err != nil {
		_ = ln.Close()
		return nil, err
	}

	n := &Node{
		cfg:      cfg,
		ln:       ln,
		loadConn: loadConn,
		queue:    make(chan nodeTask, cfg.QueueCap),
		done:     make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		unpause:  closedChan(),
		inqRNG:   stats.NewRNG(cfg.Seed ^ 0x9e3779b97f4a7c15),
	}

	for i := 0; i < cfg.Workers; i++ {
		n.wg.Add(1)
		go n.worker()
	}
	n.wg.Add(1)
	go n.acceptLoop()
	// Inquiries arrive as synchronous handler calls when the transport
	// supports it (mem fabric); otherwise a read loop parks in ReadFrom.
	if hc, ok := loadConn.(transport.HandlerPacketConn); !ok || !hc.SetPacketHandler(n.handleInquiry) {
		n.wg.Add(1)
		go n.loadIndexLoop()
	}

	if cfg.Directory != nil {
		n.publish()
		n.wg.Add(1)
		go n.publishLoop()
	}
	return n, nil
}

// AccessAddr returns the stream service access address.
func (n *Node) AccessAddr() string { return n.ln.Addr() }

// Transport returns the transport the node is listening on. Anything
// that wants to reach the node (a raw test dialer, a diagnostic
// client) must dial through this, since an in-memory fabric is only
// reachable from within itself.
func (n *Node) Transport() transport.Transport { return n.cfg.Transport }

// LoadAddr returns the datagram load-index address.
func (n *Node) LoadAddr() string { return n.loadConn.LocalAddr() }

// LoadIndex returns the node's current load index: the total number of
// active service accesses (queued plus in service), the paper's load
// measure.
func (n *Node) LoadIndex() int { return int(n.load.load()) }

// Endpoint returns the node's published endpoint description.
func (n *Node) Endpoint() Endpoint {
	return Endpoint{
		NodeID:     n.cfg.ID,
		Service:    n.cfg.Service,
		Partitions: n.cfg.Partitions,
		AccessAddr: n.AccessAddr(),
		LoadAddr:   n.LoadAddr(),
	}
}

// Stats snapshots the node's counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Served:    n.served.Load(),
		Overloads: n.overloads.Load(),
		Inquiries: n.inquiries.Load(),
		Dropped:   n.dropped.Load(),
		SlowPaths: n.slowPaths.Load(),
	}
}

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// Pause freezes the node (fault injection): workers stop pulling work,
// load inquiries go unanswered, and heartbeats stop so the node's
// directory entries expire at the TTL. Accepted requests stay queued.
func (n *Node) Pause() {
	n.pauseMu.Lock()
	defer n.pauseMu.Unlock()
	if n.paused.Load() {
		return
	}
	n.unpause = make(chan struct{})
	n.paused.Store(true)
}

// Resume lifts a Pause: workers drain the queue, inquiries are answered
// again, and the node immediately re-publishes its endpoint so clients
// rediscover it without waiting a full publish period.
func (n *Node) Resume() {
	n.pauseMu.Lock()
	if !n.paused.Load() {
		n.pauseMu.Unlock()
		return
	}
	n.paused.Store(false)
	close(n.unpause)
	n.pauseMu.Unlock()
	n.publish()
}

// Paused reports whether the node is currently paused.
func (n *Node) Paused() bool { return n.paused.Load() }

// Drain withdraws the node from routing (elastic membership): it stops
// publishing heartbeats and withdraws its directory entry, local or
// remote, so clients drop it at their next refresh, yet keeps accepting
// and serving requests — queued work and stragglers from stale mapping
// tables complete normally. Rejoin reverses a drain.
func (n *Node) Drain() {
	if n.draining.Swap(true) || n.cfg.Directory == nil {
		return
	}
	n.pubMu.Lock()
	defer n.pubMu.Unlock()
	n.cfg.Directory.Withdraw(n.cfg.ID, n.cfg.Service)
}

// Rejoin lifts a Drain: the node immediately re-publishes its endpoint
// so clients rediscover it without waiting a full publish period.
func (n *Node) Rejoin() {
	if n.draining.Swap(false) {
		n.publish()
	}
}

// Draining reports whether the node is currently drained.
func (n *Node) Draining() bool { return n.draining.Load() }

// pauseGate blocks while the node is paused. It returns false when the
// node shut down while waiting.
func (n *Node) pauseGate() bool {
	for n.paused.Load() {
		n.pauseMu.Lock()
		gate := n.unpause
		n.pauseMu.Unlock()
		select {
		case <-n.done:
			return false
		case <-gate:
		}
	}
	return true
}

// Close shuts the node down and waits for its goroutines to exit.
// Requests still queued at shutdown are abandoned.
func (n *Node) Close() error {
	n.once.Do(func() {
		close(n.done)
		_ = n.ln.Close()
		_ = n.loadConn.Close()
		n.connMu.Lock()
		for c := range n.conns {
			c.Close()
		}
		n.connMu.Unlock()
	})
	n.wg.Wait()
	n.gaugeDrain.Do(func() {
		n.cfg.Metrics.ServerActive.Add(-n.load.load())
	})
	return nil
}

// publish announces the node's endpoint unless it is draining or has
// no directory.
func (n *Node) publish() {
	if n.cfg.Directory == nil {
		return
	}
	n.pubMu.Lock()
	defer n.pubMu.Unlock()
	if !n.draining.Load() {
		n.cfg.Directory.Publish(n.Endpoint())
	}
}

func (n *Node) publishLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.PublishInterval)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
			if !n.paused.Load() {
				n.publish()
			}
		}
	}
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		n.wg.Add(1)
		go n.serveConn(c)
	}
}

func (n *Node) serveConn(c net.Conn) {
	defer n.wg.Done()
	n.connMu.Lock()
	n.conns[c] = struct{}{}
	n.connMu.Unlock()
	defer func() {
		n.connMu.Lock()
		delete(n.conns, c)
		n.connMu.Unlock()
		c.Close()
	}()
	// A connection accepted while Close is sweeping n.conns would be
	// missed by the sweep and block this goroutine forever; Close
	// closes done before sweeping, so re-checking here closes the gap.
	select {
	case <-n.done:
		return
	default:
	}
	nc := &nodeConn{c: c, w: bufio.NewWriter(c)}
	r := bufio.NewReader(c)
	sh := n.load.assign()
	for {
		req, err := ReadRequest(r)
		if err != nil {
			return // connection closed or protocol error
		}
		if n.cfg.Service != "" && req.Service != n.cfg.Service {
			_ = nc.writeResponse(&Response{ID: req.ID, Status: StatusNoService})
			continue
		}
		// The access becomes active the moment it is accepted; this is
		// the quantity the load-index server reports.
		sh.add(1)
		n.cfg.Metrics.ServerActive.Add(1)
		select {
		case n.queue <- nodeTask{req: req, conn: nc}:
		default:
			sh.add(-1)
			n.cfg.Metrics.ServerActive.Add(-1)
			n.overloads.Add(1)
			n.cfg.Metrics.ServerOverloads.Inc()
			_ = nc.writeResponse(&Response{ID: req.ID, Status: StatusOverload})
		}
	}
}

func (n *Node) worker() {
	defer n.wg.Done()
	var sl sleeper
	sh := n.load.assign()
	for {
		select {
		case <-n.done:
			return
		case task := <-n.queue:
			if !n.pauseGate() {
				return
			}
			n.cfg.Metrics.WorkersBusy.Add(1)
			payload := task.req.Payload // echo, like the paper's translation services
			status := uint8(StatusOK)
			if n.cfg.Handler != nil {
				payload, status = n.cfg.Handler.Serve(task.req)
			} else {
				d := time.Duration(task.req.ServiceUs) * time.Microsecond
				if n.cfg.Spin {
					spinFor(d)
				} else if d > 0 {
					sl.sleep(d)
				}
			}
			load := uint32(n.load.load())
			sh.add(-1)
			n.served.Add(1)
			n.cfg.Metrics.ServerActive.Add(-1)
			n.cfg.Metrics.ServerServed.Inc()
			n.cfg.Metrics.WorkersBusy.Add(-1)
			_ = task.conn.writeResponse(&Response{
				ID:      task.req.ID,
				Status:  status,
				Load:    load,
				Payload: payload,
			})
		}
	}
}

// sleeper emulates CPU work of a requested duration with time.Sleep
// while compensating for the kernel's wakeup overshoot (hundreds of
// microseconds per sleep on a busy box), which would otherwise inflate
// every service time and silently push a 90%-load experiment into
// saturation.
//
// It keeps two correction terms per worker:
//
//   - debt: signed accumulated difference between time actually slept
//     and time requested. Overshoot from one job shortens the next, so
//     the *long-run* service rate — the quantity that sets the server's
//     utilization — is exact even though individual jobs carry a few
//     hundred microseconds of noise.
//   - slack: an EWMA estimate of the per-sleep overshoot, subtracted
//     up front so per-job noise stays small.
//
// This plays the role of the paper's empirical load calibration (§4).
type sleeper struct {
	debt  time.Duration // slept-minus-requested carryover (+ = overshot)
	slack time.Duration // EWMA of per-sleep overshoot
}

func (s *sleeper) sleep(d time.Duration) {
	needed := d - s.debt
	if needed <= 0 {
		// Previous overshoot already covered this job.
		s.debt = -needed
		return
	}
	target := needed - s.slack
	if target < 0 {
		target = 0
	}
	start := time.Now()
	if target > 0 {
		time.Sleep(target)
	}
	actual := time.Since(start)
	s.debt = actual - needed
	if over := actual - target; over > 0 {
		s.slack += (over - s.slack) / 8
	}
}

// spinFor burns CPU until d has elapsed, yielding occasionally so the
// scheduler can run other goroutines on the same thread.
func spinFor(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			_ = i * i
		}
		runtime.Gosched()
	}
}

// handleInquiry answers one UDP load inquiry (§3.1): the server side
// of the random polling policy. It runs either synchronously on the
// inquiring client's goroutine (HandlerPacketConn transports) or on
// loadIndexLoop's goroutine. Answers pass through the contention model
// described in DESIGN.md: a busy node occasionally answers slowly, the
// way the paper's busy Linux nodes took >10 ms to answer a 290 µs
// round-trip inquiry. The fast-path reply is encoded into a pooled
// buffer and written after inqMu is released: on the synchronous path
// WriteTo delivers into the inquiring round's socket, and holding
// the node's mutex across it would serialize every concurrent poller
// of this node behind one delivery.
//
//lint:noalloc
func (n *Node) handleInquiry(p []byte, from string) {
	seq, err := DecodeInquiry(p)
	if err != nil {
		return // ignore malformed datagrams
	}
	select {
	case <-n.done:
		return // shut down; a real socket would already be closed
	default:
	}
	if n.paused.Load() {
		// A stalled process answers nothing; the client's discard
		// deadline (and quarantine) handles the silence.
		n.dropped.Add(1)
		n.cfg.Metrics.InquiriesDropped.Inc()
		return
	}
	n.inqMu.Lock()
	n.inquiries.Add(1)
	n.cfg.Metrics.InquiriesServed.Inc()
	if n.load.load() > 0 && n.cfg.SlowProb > 0 && n.inqRNG.Float64() < n.cfg.SlowProb {
		// Slow path: scheduling interference on a busy node.
		n.slowPaths.Add(1)
		n.cfg.Metrics.SlowAnswers.Inc()
		delay := time.Duration(n.cfg.SlowDist.Sample(n.inqRNG) * float64(time.Second))
		n.inqMu.Unlock()
		//lint:allow noalloc the slow path is rare by construction (SlowProb); its timer closure is the contention model, not the hot path
		time.AfterFunc(delay, func() {
			select {
			case <-n.done:
				return
			default:
			}
			reply := EncodeLoad(make([]byte, 0, loadSize), seq, uint32(n.load.load()))
			_, _ = n.loadConn.WriteTo(reply, from)
		})
		return
	}
	load := uint32(n.load.load())
	n.inqMu.Unlock()
	// The buffer is pooled, not per-node: WriteTo's contract is that
	// the payload is consumed before it returns (DESIGN.md §12), so the
	// buffer can be recycled immediately, and concurrent inquiries each
	// hold their own.
	bp := loadBufPool.Get().(*[]byte)
	*bp = EncodeLoad((*bp)[:0], seq, load)
	_, _ = n.loadConn.WriteTo(*bp, from)
	loadBufPool.Put(bp)
}

// loadBufPool recycles load-answer datagram buffers across the
// fast-path replies of every node in the process.
var loadBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, loadSize)
	return &b
}}

// loadIndexLoop is the read-loop fallback for transports without
// synchronous handler delivery (real sockets): it parks in ReadFrom
// and feeds each inquiry to handleInquiry.
func (n *Node) loadIndexLoop() {
	defer n.wg.Done()
	buf := make([]byte, 64)
	for {
		m, from, err := n.loadConn.ReadFrom(buf)
		if err != nil {
			return // socket closed
		}
		n.handleInquiry(buf[:m], from)
	}
}
