package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/obs"
	"finelb/internal/stats"
	"finelb/internal/transport"
)

// accessTimeout bounds one service round trip.
const accessTimeout = 10 * time.Second

// ClientConfig configures a client node.
type ClientConfig struct {
	ID int
	// Directory is where the service mapping table comes from
	// (required). A FixedDirectory fixes the table: no refresh loop,
	// no soft-state expiry.
	Directory ServiceDirectory
	Service   string
	Partition uint32
	Policy    core.Policy

	// Transport is the messaging substrate the client dials through
	// (default transport.Net, real loopback sockets).
	Transport transport.Transport

	// ManagerAddr is the IdealManager address (required for the Ideal
	// policy, ignored otherwise).
	ManagerAddr string

	// RefreshInterval is how often the service mapping table is
	// refreshed from the directory (default 250 ms).
	RefreshInterval time.Duration

	// QuarantineAfter puts a server on this client's quarantine list
	// after that many consecutive unanswered load inquiries; a broken
	// service round trip quarantines immediately (faults.Detector).
	// Quarantined servers are skipped by server selection until
	// QuarantineFor elapses (or a later inquiry is answered). Default
	// faults.DefaultQuarantineAfter; negative disables quarantine.
	QuarantineAfter int

	// QuarantineFor is how long a quarantined server is avoided.
	// Default faults.DefaultQuarantineFor.
	QuarantineFor time.Duration

	// Faults, when non-nil, injects the schedule's link faults (poll
	// loss and added latency) into this client's load inquiries, keyed
	// by this client's ID. The poll fan-out replays them, so Net and
	// Mem honor a schedule identically. Node events are replayed by the
	// driver, not here.
	Faults *faults.Schedule

	// Metrics is the run's shared obs.RunMetrics catalog (poll
	// counters, RTT histogram, retries, quarantines). Nil gets a
	// private catalog so the hot paths stay branch-free; pass the run's
	// to aggregate across clients (RunExperiment does).
	Metrics *obs.RunMetrics

	Seed uint64
}

// AccessInfo reports the measured details of one service access.
type AccessInfo struct {
	Server    int           // NodeID that served the access
	Resp      *Response     // server reply
	PollTime  time.Duration // time spent acquiring load information (all rounds)
	Polled    int           // inquiries sent
	Answered  int           // inquiries answered in time
	Discarded int           // inquiries abandoned at the deadline
	Retries   int           // poll rounds and access attempts beyond the first
	PollRTTs  []time.Duration
}

// Client is a client node: it maintains a service mapping table from
// the availability subsystem and runs the load-balancing subsystem
// (poll rounds or baseline policies) in front of the service access
// point (Figure 5).
type Client struct {
	cfg   ClientConfig
	tr    transport.Transport
	links *faults.LinkState // this client's link-fault stream; nil when none

	//lint:guards rng, rr, endpoints, ident, outstanding
	mu          sync.Mutex
	rng         *stats.RNG
	rr          core.RoundRobinState
	endpoints   []Endpoint
	ident       []int       // identity permutation scratch for poll-set selection
	outstanding map[int]int // this client's in-flight accesses by NodeID (LocalLeast)

	// det is the client's failure detector, keyed by NodeID on the
	// clock of epoch; nil when quarantine is off. The pointer is set
	// once by NewClient; the detector's state is guarded by mu.
	det   *faults.Detector
	epoch time.Time

	// calls carries every service access; Refresh prunes its pools to
	// the mapping table.
	calls *Caller

	// Poll rounds, each owning one datagram socket (pollround.go). idle
	// is the free list; rounds is every round the client has minted,
	// idle or in flight, so Close can close an in-flight round's socket
	// and unblock its owner at once. A free list, not a sync.Pool: a
	// round the pool dropped would leak its socket.
	//lint:guards idle, rounds
	roundMu sync.Mutex
	idle    []*pollRound
	rounds  []*pollRound
	// late counts answers that arrived after their round stopped
	// waiting (§3.2).
	late atomic.Int64

	mgr *managerClient

	seq    atomic.Uint32
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	closed atomic.Bool
}

// NewClient builds a client node and performs an initial mapping-table
// refresh.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Directory == nil {
		return nil, fmt.Errorf("cluster: client needs a directory")
	}
	if cfg.Policy.Kind == core.Broadcast {
		return nil, fmt.Errorf("cluster: the prototype does not implement the broadcast policy (the paper's didn't either, §3)")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.Policy.Kind == core.Ideal && cfg.ManagerAddr == "" {
		return nil, fmt.Errorf("cluster: Ideal policy needs ManagerAddr")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	if cfg.RefreshInterval == 0 {
		cfg.RefreshInterval = 250 * time.Millisecond
	}
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = faults.DefaultQuarantineAfter
	}
	if cfg.QuarantineFor == 0 {
		cfg.QuarantineFor = faults.DefaultQuarantineFor
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRunMetrics(nil)
	}
	tr := cfg.Transport
	if tr == nil {
		tr = transport.Default()
	}
	c := &Client{
		cfg:         cfg,
		tr:          tr,
		rng:         stats.NewRNG(cfg.Seed ^ 0xc1e9a7b3d5f01234),
		calls:       NewCaller(tr, accessTimeout),
		outstanding: make(map[int]int),
		det:         faults.NewDetector(cfg.QuarantineAfter, cfg.QuarantineFor, 0),
		epoch:       time.Now(),
		done:        make(chan struct{}),
	}
	// A negative ID is no client of a link, so no link rule applies.
	if cfg.ID >= 0 {
		c.links = cfg.Faults.NewLinkState(cfg.ID)
	}
	if cfg.Policy.Kind == core.Ideal {
		c.mgr = newManagerClient(tr, cfg.ManagerAddr)
	}
	c.Refresh()
	if _, fixed := cfg.Directory.(FixedDirectory); !fixed {
		c.wg.Add(1)
		go c.refreshLoop()
	}
	return c, nil
}

// Refresh re-reads the service mapping table from the directory. A
// failed lookup keeps the previous table rather than wiping it.
func (c *Client) Refresh() {
	eps, err := c.cfg.Directory.Lookup(c.cfg.Service, c.cfg.Partition)
	if err != nil {
		return // transient: keep the stale table
	}
	c.mu.Lock()
	c.endpoints = eps
	c.calls.prune(eps)
	c.mu.Unlock()
}

func (c *Client) refreshLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.RefreshInterval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.Refresh()
		}
	}
}

// Endpoints snapshots the current mapping table.
func (c *Client) Endpoints() []Endpoint {
	return append([]Endpoint(nil), c.table()...)
}

// table returns the current mapping table without copying it. Refresh
// always installs a freshly built slice and nothing writes one after
// installing it, so the result is an immutable snapshot: callers may
// read it without the lock for as long as they like, and must never
// write it.
func (c *Client) table() []Endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.endpoints
}

// Close releases sockets and stops background goroutines.
func (c *Client) Close() error {
	c.once.Do(func() {
		c.closed.Store(true)
		close(c.done)
		c.roundMu.Lock()
		for _, r := range c.rounds {
			_ = r.conn.Close()
		}
		c.roundMu.Unlock()
		c.calls.Close()
		if c.mgr != nil {
			c.mgr.close()
		}
	})
	c.wg.Wait()
	return nil
}

// LateAnswers reports how many poll answers arrived after their round
// stopped waiting for them at the deadline — the observable count of
// the §3.2 slow-poll discards. Answers already queued on idle round
// sockets are read and counted first.
func (c *Client) LateAnswers() int64 {
	c.roundMu.Lock()
	for _, r := range c.idle {
		c.drainLocked(r)
	}
	c.roundMu.Unlock()
	return c.late.Load()
}

// liveEndpoints returns eps minus the servers this client has
// quarantined, and whether any survived; when none did it returns eps
// and false (faults.Live).
func (c *Client) liveEndpoints(eps []Endpoint) ([]Endpoint, bool) {
	if c.det == nil {
		return eps, true // quarantine off: skip the lock
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return faults.Live(c.det, nil, eps, nodeID, time.Since(c.epoch))
}

// nodeID maps an endpoint to the server id its detector state is kept
// under.
func nodeID(ep Endpoint) int { return ep.NodeID }

// silentLocked records one unanswered inquiry to node id at now on
// the detector's clock. Caller holds c.mu.
func (c *Client) silentLocked(id int, now time.Duration) {
	if c.det.Silent(id, now) {
		c.cfg.Metrics.Quarantines.Inc()
	}
}

// backoff sleeps the jittered backoff before retry attempt (0-based).
// It returns false if the client closed while waiting.
func (c *Client) backoff(attempt int) bool {
	d := faults.Backoff(attempt)
	c.mu.Lock()
	jitter := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	t := time.NewTimer(time.Duration(float64(d) * jitter))
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.done:
		return false
	}
}

// Access performs one service access of the configured service using
// the configured policy, emulating serviceUs microseconds of work on
// the chosen server. A failed round trip quarantines the chosen server
// and retries on a re-chosen one, after a backoff, up to
// faults.DefaultAccessRetries times (never for Ideal, whose manager
// accounts each access exactly once) before reporting the error.
func (c *Client) Access(serviceUs uint32, payload []byte) (*AccessInfo, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("cluster: client closed")
	}
	info := &AccessInfo{}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if !c.backoff(attempt - 1) {
				return nil, fmt.Errorf("cluster: client closed during retry (last error: %v)", lastErr)
			}
			info.Retries++
			c.cfg.Metrics.Retries.Inc()
		}
		err := c.accessOnce(serviceUs, payload, info)
		if err == nil {
			return info, nil
		}
		lastErr = err
		if c.closed.Load() || attempt >= faults.DefaultAccessRetries || c.cfg.Policy.Kind == core.Ideal {
			return nil, lastErr
		}
	}
}

// accessOnce runs one server-selection + service round trip.
func (c *Client) accessOnce(serviceUs uint32, payload []byte, info *AccessInfo) error {
	eps := c.table()
	if len(eps) == 0 {
		return fmt.Errorf("cluster: no live endpoints for %q", c.cfg.Service)
	}
	// Selection skips quarantined servers; when everything is
	// quarantined the client has nothing better than the full table.
	pickFrom, fresh := c.liveEndpoints(eps)

	var target Endpoint
	var releaseIdx uint32
	release := false

	switch c.cfg.Policy.Kind {
	case core.Random:
		c.mu.Lock()
		target = pickFrom[c.rng.Intn(len(pickFrom))]
		c.mu.Unlock()

	case core.RoundRobin:
		c.mu.Lock()
		target = pickFrom[c.rr.Next(len(pickFrom))]
		c.mu.Unlock()

	case core.Ideal:
		// The manager's view is the full table; quarantine is not
		// consulted (the manager is the failure authority for Ideal).
		// The manager assigns node ids, which on an elastic pool are a
		// sparse subset of the mapping table — resolve by NodeID, not by
		// position.
		idx, err := c.mgr.acquire()
		if err != nil {
			return fmt.Errorf("cluster: manager acquire: %w", err)
		}
		var found bool
		target, found = c.endpoint(int(idx))
		if !found {
			// A just-joined server can be assigned before this client's
			// periodic refresh has seen it; refresh once before giving up.
			c.Refresh()
			target, found = c.endpoint(int(idx))
		}
		if !found {
			// Mapping table behind the manager's view; release and fail.
			_ = c.mgr.release(idx)
			return fmt.Errorf("cluster: manager assigned node %d not in mapping table (%d endpoints)", idx, len(eps))
		}
		releaseIdx, release = idx, true

	case core.LocalLeast:
		// Message-free: pick the endpoint with the fewest of this
		// client's own in-flight accesses (ablation A4).
		c.mu.Lock()
		loads := make([]int, len(pickFrom))
		for i, ep := range pickFrom {
			loads[i] = c.outstanding[ep.NodeID]
		}
		target = pickFrom[core.PickLeast(c.rng, loads)]
		c.outstanding[target.NodeID]++
		c.mu.Unlock()
		defer func() {
			c.mu.Lock()
			c.outstanding[target.NodeID]--
			c.mu.Unlock()
		}()

	case core.Poll:
		var err error
		target, err = c.pollAndPick(eps, pickFrom, fresh, info)
		if err != nil {
			return err
		}

	default:
		return fmt.Errorf("cluster: policy %v unsupported in prototype", c.cfg.Policy)
	}

	resp, err := c.dispatch(target, serviceUs, payload)
	if release {
		// Report completion (or failure) back to the manager so the
		// queue count is decremented, as in §4.
		if rerr := c.mgr.release(releaseIdx); rerr != nil && err == nil {
			err = rerr
		}
	}
	if err != nil {
		return err
	}
	info.Server = target.NodeID
	info.Resp = resp
	return nil
}

// dispatch sends one service request to target: the one round trip
// behind Access and AccessNode. Each call counts one dispatch, and a
// broken round trip quarantines target.
func (c *Client) dispatch(target Endpoint, serviceUs uint32, payload []byte) (*Response, error) {
	c.cfg.Metrics.Dispatches.Inc()
	resp, err := c.calls.Call(target, c.cfg.Service, c.cfg.Partition, serviceUs, payload)
	if err != nil && c.det != nil {
		c.mu.Lock()
		if c.det.Failed(target.NodeID, time.Since(c.epoch)) {
			c.cfg.Metrics.Quarantines.Inc()
		}
		c.mu.Unlock()
	}
	return resp, err
}

// endpoint looks nodeID up in the current mapping table.
func (c *Client) endpoint(nodeID int) (Endpoint, bool) {
	for _, ep := range c.table() {
		if ep.NodeID == nodeID {
			return ep, true
		}
	}
	return Endpoint{}, false
}

// HasEndpoint reports whether nodeID is currently in the mapping
// table. The gateway's sticky router checks this before committing a
// session-bound dispatch to a node the soft state may have expired.
func (c *Client) HasEndpoint(nodeID int) bool {
	_, ok := c.endpoint(nodeID)
	return ok
}

// AccessNode performs one service access against a specific server
// node, bypassing policy selection — sticky-session routing (the
// gateway's affinity path) dispatches session-bound requests this way.
// The trip is a single attempt with no retries: the caller owns the
// fallback decision, because re-routing a session is a stickiness
// violation it must account for. A broken round trip quarantines the
// node exactly as a policy-selected access would.
func (c *Client) AccessNode(nodeID int, serviceUs uint32, payload []byte) (*AccessInfo, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("cluster: client closed")
	}
	target, ok := c.endpoint(nodeID)
	if !ok {
		return nil, fmt.Errorf("cluster: node %d not in mapping table for %q", nodeID, c.cfg.Service)
	}
	resp, err := c.dispatch(target, serviceUs, payload)
	if err != nil {
		return nil, err
	}
	return &AccessInfo{Server: nodeID, Resp: resp}, nil
}

// pollAndPick implements the random polling policy (§3.1-3.2) with
// failure handling, as the simulator's client does: poll PollSize
// random non-quarantined servers, and if a whole round goes unanswered,
// back off and re-poll up to faults.DefaultPollRetries times before
// falling back to a random server still believed live. cands and
// fresh are liveEndpoints(eps): when every server is quarantined
// polling is pointless, and the pick is random over the full table.
func (c *Client) pollAndPick(eps, cands []Endpoint, fresh bool, info *AccessInfo) (Endpoint, error) {
	for round := 0; fresh; round++ {
		ep, ok, err := c.pollOnce(cands, info)
		if err != nil || ok {
			return ep, err
		}
		if round >= faults.DefaultPollRetries {
			// Every round was silence, which may have quarantined some.
			cands, _ = c.liveEndpoints(eps)
			break
		}
		info.Retries++
		c.cfg.Metrics.Retries.Inc()
		if !c.backoff(round) {
			return Endpoint{}, errPollClosed
		}
		cands, fresh = c.liveEndpoints(eps)
	}
	c.mu.Lock()
	ep := cands[c.rng.Intn(len(cands))]
	c.mu.Unlock()
	return ep, nil
}

// pollOnce runs one poll round: send load inquiries to PollSize random
// servers from the round's own datagram socket, read the answers back
// on it until all are in or the discard deadline passes, and pick the
// least-loaded respondent. ok is false when not a single answer
// arrived in time.
//
// The round is pooled state (pollround.go): one socket, one encode
// buffer, one read deadline, and the owner's own reads — no reader
// goroutine, demultiplexer or wakeup in between — so steady-state
// rounds allocate nothing. The RNG and sequence-number streams are
// exactly those of the historical per-reply-channel implementation:
// ChooseIdentity draws the same poll set Choose did, and seq numbers
// (and link-fault draws) are taken per inquiry in poll-set order.
//
//lint:noalloc steady state; the free-list mint lives in getRound
func (c *Client) pollOnce(eps []Endpoint, info *AccessInfo) (ep Endpoint, ok bool, err error) {
	d := c.cfg.Policy.PollSize
	if d > len(eps) {
		d = len(eps)
	}
	r, err := c.getRound(d)
	if err != nil {
		return Endpoint{}, false, err
	}

	// Choose the poll set. The identity scratch persists across rounds;
	// ChooseIdentity restores it, so growth is the only maintenance.
	c.mu.Lock()
	for len(c.ident) < len(eps) {
		c.ident = append(c.ident, len(c.ident))
	}
	c.rng.ChooseIdentity(r.polled, len(eps), c.ident, r.swaps)
	c.mu.Unlock()

	r.start = time.Now()
	sent := 0
	for _, epIdx := range r.polled {
		target := &eps[epIdx]
		seq := c.seq.Add(1)
		if err := c.inquire(r, seq, target); err != nil {
			// The send failed outright (the client is closing, or the
			// address is unusable): the server stays unpolled.
			c.mu.Lock()
			c.silentLocked(target.NodeID, time.Since(c.epoch))
			c.mu.Unlock()
			continue
		}
		r.epIdx[sent] = epIdx
		r.seqs[sent] = seq
		sent++
	}
	info.Polled += sent
	c.cfg.Metrics.PollRequests.Add(int64(sent))

	wait := faults.DefaultPollTimeout
	if da := c.cfg.Policy.DiscardAfter; da > 0 && da < wait {
		wait = da
	}
	if err := c.collect(r, sent, r.start.Add(wait)); err != nil {
		// Close took the round's socket with it; the round is not reused.
		return Endpoint{}, false, err
	}

	r.responses = r.responses[:0]
	for i := 0; i < sent; i++ {
		load := r.loads[i]
		if load < 0 {
			continue
		}
		r.responses = append(r.responses, core.PollResponse{Server: r.epIdx[i], Load: int(load)})
		rtt := r.rtts[i]
		info.PollRTTs = append(info.PollRTTs, rtt)
		c.cfg.Metrics.PollRTTSeconds.Observe(rtt.Seconds())
	}
	answered := len(r.responses)
	r.owed += sent - answered
	info.Answered += answered
	info.Discarded += sent - answered
	info.PollTime += time.Since(r.start)
	c.cfg.Metrics.PollResponses.Add(int64(answered))
	c.cfg.Metrics.PollDiscards.Add(int64(sent - answered))

	// Failure detection (faults.Detector): an answer is proof of life;
	// silence is a strike, and consecutive strikes quarantine. One lock
	// covers the whole round's outcomes and the pick.
	c.mu.Lock()
	if c.det != nil {
		now := time.Since(c.epoch)
		for i := 0; i < sent; i++ {
			if id := eps[r.epIdx[i]].NodeID; r.loads[i] >= 0 {
				c.det.Answered(id)
			} else {
				c.silentLocked(id, now)
			}
		}
	}
	pick := -1
	if answered > 0 {
		pick = core.PickFromPolls(c.rng, r.responses, r.polled)
	}
	c.mu.Unlock()
	c.putRound(r)
	if pick < 0 {
		return Endpoint{}, false, nil
	}
	return eps[pick], true, nil
}

// PollRound runs exactly one poll round against eps — encode, fan-out,
// read, decision — with no service access attached, and reports the
// chosen endpoint. ok is false when no server answered within the
// deadline. This is the entry point the pollpath benchmark record
// (cmd/repro, BENCH_pollpath.json) and the in-package benchmarks drive;
// Access remains the production path.
func (c *Client) PollRound(eps []Endpoint, info *AccessInfo) (ep Endpoint, ok bool, err error) {
	return c.pollOnce(eps, info)
}
