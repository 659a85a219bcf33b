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
	ID        int
	Directory *Directory
	Service   string
	Partition uint32
	Policy    core.Policy

	// Transport is the messaging substrate the client dials through
	// (default transport.Net, real loopback sockets).
	Transport transport.Transport

	// RemoteDir, when non-nil, refreshes the mapping table from a
	// DirServer in another process instead of an in-process Directory.
	RemoteDir *RemoteDirectory

	// StaticEndpoints, when no directory of either kind is set, fixes
	// the mapping table (no refresh, no soft-state expiry). Used by the
	// standalone CLI tools when run without a directory server.
	StaticEndpoints []Endpoint

	// ManagerAddr is the IdealManager address (required for the Ideal
	// policy, ignored otherwise).
	ManagerAddr string

	// RefreshInterval is how often the service mapping table is
	// refreshed from the directory (default 250 ms).
	RefreshInterval time.Duration

	// PollTimeout caps the wait for poll answers when no discard
	// threshold is configured (default 1 s); a lost datagram must not
	// hang an access forever.
	PollTimeout time.Duration

	// PollRetries is how many times a completely unanswered poll round
	// is re-polled (after a jittered backoff) before the client falls
	// back to random selection. Default faults.DefaultPollRetries;
	// negative disables retries.
	PollRetries int

	// AccessRetries is how many times a failed service round trip is
	// retried on a freshly chosen server. Default
	// faults.DefaultAccessRetries; negative disables retries. Forced to
	// zero for the Ideal policy, whose manager acquire/release protocol
	// accounts each access exactly once.
	AccessRetries int

	// QuarantineAfter puts a server on this client's quarantine list
	// after that many consecutive unanswered load inquiries; a broken
	// service round trip quarantines immediately. Quarantined servers
	// are skipped by server selection until QuarantineFor elapses (or a
	// later inquiry is answered). Default faults.DefaultQuarantineAfter;
	// negative disables quarantine.
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

// serverHealth is this client's failure-detector state for one server.
type serverHealth struct {
	strikes int       // consecutive unanswered inquiries
	until   time.Time // quarantined while now < until
}

// Client is a client node: it maintains a service mapping table from
// the availability subsystem and runs the load-balancing subsystem
// (poll rounds or baseline policies) in front of the service access
// point (Figure 5).
type Client struct {
	cfg   ClientConfig
	tr    transport.Transport
	links *faults.LinkState // this client's link-fault stream; nil when none

	//lint:guards rng, rr, endpoints, ident, pools, outstanding, health, absentSince
	mu          sync.Mutex
	rng         *stats.RNG
	rr          core.RoundRobinState
	endpoints   []Endpoint
	ident       []int                 // identity permutation scratch for poll-set selection
	pools       map[string]*connPool  // by access address
	outstanding map[int]int           // this client's in-flight accesses by NodeID (LocalLeast)
	health      map[int]*serverHealth // quarantine state by NodeID
	// absentSince records when a pooled access address was first
	// missing from the mapping table; pruning waits out a soft-state TTL
	// so a starved republish (one missed heartbeat under load) doesn't
	// tear down live connections.
	absentSince map[string]time.Time

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
	reqID  atomic.Uint64
	done   chan struct{}
	wg     sync.WaitGroup
	once   sync.Once
	closed atomic.Bool
}

// NewClient builds a client node and performs an initial mapping-table
// refresh.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Directory == nil && cfg.RemoteDir == nil && len(cfg.StaticEndpoints) == 0 {
		return nil, fmt.Errorf("cluster: client needs a directory, a remote directory, or static endpoints")
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
	if cfg.PollTimeout == 0 {
		cfg.PollTimeout = time.Second
	}
	if cfg.PollRetries == 0 {
		cfg.PollRetries = faults.DefaultPollRetries
	}
	if cfg.PollRetries < 0 {
		cfg.PollRetries = 0
	}
	if cfg.AccessRetries == 0 {
		cfg.AccessRetries = faults.DefaultAccessRetries
	}
	if cfg.AccessRetries < 0 || cfg.Policy.Kind == core.Ideal {
		cfg.AccessRetries = 0
	}
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = faults.DefaultQuarantineAfter
	}
	if cfg.QuarantineAfter < 0 {
		cfg.QuarantineAfter = 0
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
		pools:       make(map[string]*connPool),
		absentSince: make(map[string]time.Time),
		outstanding: make(map[int]int),
		health:      make(map[int]*serverHealth),
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
	if cfg.Directory != nil || cfg.RemoteDir != nil {
		c.wg.Add(1)
		go c.refreshLoop()
	}
	return c, nil
}

// Refresh re-reads the service mapping table from the directory (or
// re-installs the static endpoint list). A failed remote lookup keeps
// the previous table rather than wiping it.
func (c *Client) Refresh() {
	var eps []Endpoint
	switch {
	case c.cfg.Directory != nil:
		eps = c.cfg.Directory.Lookup(c.cfg.Service, c.cfg.Partition)
	case c.cfg.RemoteDir != nil:
		got, err := c.cfg.RemoteDir.Lookup(c.cfg.Service, c.cfg.Partition)
		if err != nil {
			return // transient: keep the stale table
		}
		eps = got
	default:
		eps = append(eps, c.cfg.StaticEndpoints...)
	}
	c.mu.Lock()
	c.endpoints = eps
	c.pruneLocked()
	c.mu.Unlock()
}

// pruneGrace is how long an access address must stay missing from the
// mapping table before Refresh closes its connections. One soft-state TTL
// distinguishes a genuinely departed server from a republish that
// arrived late under load: a single starved heartbeat expires an entry
// for at most one publish interval, well inside the grace, while a
// drained server stays absent and is pruned one TTL after its entry
// expires.
const pruneGrace = DefaultTTL

// pruneLocked closes the connection pools of servers that left the
// mapping table at least pruneGrace ago, so an elastic pool's
// membership churn cannot accumulate connections toward departed nodes
// (the FD audit in DESIGN.md §12: one bounded TCP pool per live access
// address, nothing for the long dead). Caller holds c.mu.
func (c *Client) pruneLocked() {
	now := time.Now()
	for addr, p := range c.pools {
		if c.keepLocked(addr, now) {
			continue
		}
		delete(c.pools, addr)
		p.closeAll()
	}
}

// keepLocked reports whether the pool held for access address addr
// should survive this refresh, updating the absence bookkeeping:
// present addresses clear their absence mark, missing ones are pruned
// only once they have been missing for pruneGrace. Caller holds c.mu.
func (c *Client) keepLocked(addr string, now time.Time) bool {
	for i := range c.endpoints {
		if c.endpoints[i].AccessAddr == addr {
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
		c.mu.Lock()
		for _, p := range c.pools {
			p.closeAll()
		}
		c.mu.Unlock()
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

// pool returns (creating if needed) the connection pool for an access
// address.
func (c *Client) pool(accessAddr string) *connPool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.pools[accessAddr]; ok {
		return p
	}
	p := newConnPool(c.tr, accessAddr)
	c.pools[accessAddr] = p
	return p
}

// liveEndpoints filters eps down to servers not currently quarantined.
// It returns eps unchanged when nothing is quarantined (the common,
// healthy case) and nil when every endpoint is quarantined.
func (c *Client) liveEndpoints(eps []Endpoint) []Endpoint {
	if c.cfg.QuarantineAfter == 0 {
		return eps
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.health) == 0 {
		return eps
	}
	now := time.Now()
	quarantined := 0
	for _, ep := range eps {
		if h := c.health[ep.NodeID]; h != nil && now.Before(h.until) {
			quarantined++
		}
	}
	if quarantined == 0 {
		return eps
	}
	if quarantined == len(eps) {
		return nil
	}
	live := make([]Endpoint, 0, len(eps)-quarantined)
	for _, ep := range eps {
		if h := c.health[ep.NodeID]; h != nil && now.Before(h.until) {
			continue
		}
		live = append(live, ep)
	}
	return live
}

// noteAnswered clears a server's failure-detector state: an answered
// inquiry is proof of life.
func (c *Client) noteAnswered(nodeID int) {
	if c.cfg.QuarantineAfter == 0 {
		return
	}
	c.mu.Lock()
	delete(c.health, nodeID)
	c.mu.Unlock()
}

// noteSilent records one unanswered inquiry; QuarantineAfter
// consecutive silences quarantine the server.
func (c *Client) noteSilent(nodeID int) {
	if c.cfg.QuarantineAfter == 0 {
		return
	}
	c.mu.Lock()
	h := c.health[nodeID]
	if h == nil {
		h = &serverHealth{}
		c.health[nodeID] = h
	}
	h.strikes++
	if h.strikes >= c.cfg.QuarantineAfter {
		h.until = time.Now().Add(c.cfg.QuarantineFor)
		h.strikes = 0
		c.cfg.Metrics.Quarantines.Inc()
	}
	c.mu.Unlock()
}

// noteAccessFailure quarantines a server immediately: a broken service
// round trip is much stronger evidence than a silent inquiry.
func (c *Client) noteAccessFailure(nodeID int) {
	if c.cfg.QuarantineAfter == 0 {
		return
	}
	c.mu.Lock()
	h := c.health[nodeID]
	if h == nil {
		h = &serverHealth{}
		c.health[nodeID] = h
	}
	h.strikes = 0
	h.until = time.Now().Add(c.cfg.QuarantineFor)
	c.cfg.Metrics.Quarantines.Inc()
	c.mu.Unlock()
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
// and retries (with backoff and a mapping-table refresh) up to
// AccessRetries times before reporting the error.
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
			// The table may have moved on (soft-state expiry of the dead
			// server); don't wait for the periodic refresh.
			c.Refresh()
		}
		err := c.accessOnce(serviceUs, payload, info)
		if err == nil {
			return info, nil
		}
		lastErr = err
		if c.closed.Load() || attempt >= c.cfg.AccessRetries {
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
	live := c.liveEndpoints(eps)
	pickFrom := live
	if pickFrom == nil {
		pickFrom = eps
	}

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
		found := false
		lookup := func(eps []Endpoint) {
			for _, ep := range eps {
				if ep.NodeID == int(idx) {
					target, found = ep, true
					return
				}
			}
		}
		lookup(eps)
		if !found {
			// A just-joined server can be assigned before this client's
			// periodic refresh has seen it; refresh once before giving up.
			c.Refresh()
			lookup(c.table())
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
		target, err = c.pollAndPick(eps, live, info)
		if err != nil {
			return err
		}

	default:
		return fmt.Errorf("cluster: policy %v unsupported in prototype", c.cfg.Policy)
	}

	req := &Request{
		ID:        c.reqID.Add(1),
		Service:   c.cfg.Service,
		Partition: c.cfg.Partition,
		ServiceUs: serviceUs,
		Payload:   payload,
	}
	c.cfg.Metrics.Dispatches.Inc()
	resp, tripErr := c.pool(target.AccessAddr).roundTrip(req, accessTimeout)
	var err error = tripErr
	if release {
		// Report completion (or failure) back to the manager so the
		// queue count is decremented, as in §4.
		if rerr := c.mgr.release(releaseIdx); rerr != nil && err == nil {
			err = rerr
		}
	}
	if tripErr != nil {
		c.noteAccessFailure(target.NodeID)
	}
	if err != nil {
		return err
	}
	info.Server = target.NodeID
	info.Resp = resp
	return nil
}

// HasEndpoint reports whether nodeID is currently in the mapping
// table. The gateway's sticky router checks this before committing a
// session-bound dispatch to a node the soft state may have expired.
func (c *Client) HasEndpoint(nodeID int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ep := range c.endpoints {
		if ep.NodeID == nodeID {
			return true
		}
	}
	return false
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
	var target Endpoint
	found := false
	for _, ep := range c.table() {
		if ep.NodeID == nodeID {
			target, found = ep, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: node %d not in mapping table for %q", nodeID, c.cfg.Service)
	}
	req := &Request{
		ID:        c.reqID.Add(1),
		Service:   c.cfg.Service,
		Partition: c.cfg.Partition,
		ServiceUs: serviceUs,
		Payload:   payload,
	}
	c.cfg.Metrics.Dispatches.Inc()
	resp, err := c.pool(target.AccessAddr).roundTrip(req, accessTimeout)
	if err != nil {
		c.noteAccessFailure(nodeID)
		return nil, err
	}
	return &AccessInfo{Server: nodeID, Resp: resp}, nil
}

// pollAndPick implements the random polling policy (§3.1-3.2) with
// failure handling: poll PollSize random non-quarantined servers, and
// if a whole round goes unanswered, back off and re-poll up to
// PollRetries times before falling back to random selection. live is
// the pre-filtered candidate list (nil when every server is
// quarantined, in which case polling is pointless and the pick is
// random over the full table).
func (c *Client) pollAndPick(eps, live []Endpoint, info *AccessInfo) (Endpoint, error) {
	if live == nil {
		c.mu.Lock()
		ep := eps[c.rng.Intn(len(eps))]
		c.mu.Unlock()
		return ep, nil
	}
	for round := 0; ; round++ {
		ep, ok, err := c.pollOnce(live, info)
		if err != nil {
			return Endpoint{}, err
		}
		if ok {
			return ep, nil
		}
		if round >= c.cfg.PollRetries {
			break
		}
		info.Retries++
		c.cfg.Metrics.Retries.Inc()
		if !c.backoff(round) {
			return Endpoint{}, errPollClosed
		}
		// Re-filter: the silent round may have quarantined servers.
		if fresh := c.liveEndpoints(eps); fresh != nil {
			live = fresh
		}
	}
	// Every round was silence. Fall back to a random pick among the
	// servers still believed live.
	c.mu.Lock()
	ep := live[c.rng.Intn(len(live))]
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
			c.noteSilent(target.NodeID)
			continue
		}
		r.epIdx[sent] = epIdx
		r.seqs[sent] = seq
		sent++
	}
	info.Polled += sent
	c.cfg.Metrics.PollRequests.Add(int64(sent))

	wait := c.cfg.PollTimeout
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

	// Failure detection: an answer is proof of life; silence is a
	// strike, and consecutive strikes quarantine.
	for i := 0; i < sent; i++ {
		if r.loads[i] >= 0 {
			c.noteAnswered(eps[r.epIdx[i]].NodeID)
		} else {
			c.noteSilent(eps[r.epIdx[i]].NodeID)
		}
	}

	if answered == 0 {
		c.putRound(r)
		return Endpoint{}, false, nil
	}
	c.mu.Lock()
	pick := core.PickFromPolls(c.rng, r.responses, r.polled)
	c.mu.Unlock()
	ep = eps[pick]
	c.putRound(r)
	return ep, true, nil
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
