// Package faults is the fault-injection subsystem: a deterministic,
// seedable schedule of node failures (crash, pause/resume) and network
// faults (per-link UDP poll loss and added latency) that both the
// real-socket prototype (internal/cluster) and the discrete-event
// simulator (internal/simcluster) consume.
//
// The paper's prototype assumes a healthy cluster and argues its
// soft-state directory "naturally tolerates failures" via TTL expiry;
// this package exists to exercise that claim. A Schedule is pure data —
// where and when things break — so the same schedule replayed with the
// same seed drives identical fault decisions on either substrate, and
// identical results on the (fully deterministic) simulator.
package faults

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"finelb/internal/stats"
)

// Kind enumerates node fault events.
type Kind int

const (
	// Crash stops a node permanently: its sockets close, queued work is
	// lost, and its heartbeats cease so its directory entries expire.
	Crash Kind = iota
	// Pause freezes a node, emulating a stalled or partitioned process:
	// it keeps accepted work queued but serves nothing, answers no load
	// inquiries, and stops heartbeating.
	Pause
	// Resume lifts a Pause: the node drains its queue, answers
	// inquiries again, and immediately re-registers with the directory.
	Resume
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Pause:
		return "pause"
	case Resume:
		return "resume"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NodeEvent is one scheduled node fault.
type NodeEvent struct {
	At   time.Duration // offset from the start of the run
	Node int           // target server node id
	Kind Kind
}

// LinkRule describes the poll-path network faults on the client→server
// links it matches. Client and Server select links; -1 is a wildcard.
// The first matching rule in Schedule.Links wins, so specific rules
// must precede wildcard ones.
type LinkRule struct {
	Client int // client node id, or -1 for any
	Server int // server node id, or -1 for any
	// Loss is the probability that a load inquiry (or its answer) is
	// lost on this link. The client still waits for the lost answer
	// until its poll deadline, exactly as UDP loss behaves.
	Loss float64
	// Latency is extra one-way delay added to each surviving answer.
	Latency time.Duration
}

// Schedule is a complete fault plan. The zero value (or nil) injects
// nothing.
type Schedule struct {
	// Seed drives every random fault decision (link loss draws, backoff
	// jitter in the simulator). The same Seed replays the same faults.
	Seed   uint64
	Events []NodeEvent
	Links  []LinkRule
}

// Validate reports whether the schedule is coherent.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("faults: event %d at negative offset %v", i, ev.At)
		}
		if ev.Node < 0 {
			return fmt.Errorf("faults: event %d targets node %d", i, ev.Node)
		}
		if ev.Kind < Crash || ev.Kind > Resume {
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	for i, l := range s.Links {
		if l.Loss < 0 || l.Loss > 1 {
			return fmt.Errorf("faults: link rule %d loss %v outside [0,1]", i, l.Loss)
		}
		if l.Latency < 0 {
			return fmt.Errorf("faults: link rule %d negative latency %v", i, l.Latency)
		}
	}
	return nil
}

// Active reports whether the schedule actually injects anything. A nil
// or empty schedule is inert: runners treat it exactly like no schedule
// at all, so the healthy fast path stays bit-identical.
func (s *Schedule) Active() bool {
	return s != nil && (len(s.Events) > 0 || len(s.Links) > 0)
}

// Sorted returns a copy of the events ordered by offset (stable, so
// same-instant events keep their declaration order).
func (s *Schedule) Sorted() []NodeEvent {
	if s == nil {
		return nil
	}
	out := append([]NodeEvent(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Rule returns the first link rule matching the client→server link.
func (s *Schedule) Rule(client, server int) (LinkRule, bool) {
	if s == nil {
		return LinkRule{}, false
	}
	for _, l := range s.Links {
		if (l.Client == -1 || l.Client == client) && (l.Server == -1 || l.Server == server) {
			return l, true
		}
	}
	return LinkRule{}, false
}

// LinkState is one client's deterministic view of the schedule's link
// faults: rule lookup plus a private seeded random stream for the loss
// draws. It is safe for concurrent use (prototype clients poll from
// many access goroutines).
type LinkState struct {
	sched  *Schedule
	client int

	mu  sync.Mutex
	rng *stats.RNG
}

// NewLinkState derives client's link-fault stream. It returns nil (a
// valid, inert state) when the schedule is nil or has no link rules.
func (s *Schedule) NewLinkState(client int) *LinkState {
	if s == nil || len(s.Links) == 0 {
		return nil
	}
	return &LinkState{
		sched:  s,
		client: client,
		rng:    stats.NewRNG(s.Seed ^ (0xfa017bad5eed ^ uint64(client)*0x9e3779b97f4a7c15)),
	}
}

// PollFault decides the fate of one load inquiry to server: whether the
// datagram is lost, and otherwise how much extra latency its answer
// carries. A nil LinkState injects nothing.
func (l *LinkState) PollFault(server int) (drop bool, delay time.Duration) {
	if l == nil {
		return false, 0
	}
	rule, ok := l.sched.Rule(l.client, server)
	if !ok {
		return false, 0
	}
	if rule.Loss > 0 {
		l.mu.Lock()
		drop = l.rng.Float64() < rule.Loss
		l.mu.Unlock()
		if drop {
			return true, 0
		}
	}
	return false, rule.Latency
}

// Failure-handling defaults shared by the prototype client and the
// simulator's client model, so both substrates degrade the same way.
const (
	// DefaultQuarantineAfter is how many consecutive unanswered load
	// inquiries put a server on the client's quarantine list.
	DefaultQuarantineAfter = 3
	// DefaultQuarantineFor is how long a quarantined server is avoided —
	// one directory TTL, long enough for soft state to confirm the death.
	DefaultQuarantineFor = 2 * time.Second
	// DefaultPollTimeout caps how long a client waits for poll answers
	// when the policy sets no (or a longer) discard threshold: a lost
	// datagram must not hang an access. Healthy answers arrive within a
	// round trip, so it binds only under faults or extreme jitter.
	DefaultPollTimeout = time.Second
	// DefaultPollRetries is how many times a completely unanswered poll
	// round is retried (with backoff) before falling back to random
	// selection.
	DefaultPollRetries = 1
	// DefaultAccessRetries is how many times a failed service round trip
	// is retried on a re-chosen server.
	DefaultAccessRetries = 3
	// DefaultRetryBackoff is the base retry backoff; actual waits are
	// jittered uniformly over [0.5, 1.5)x and double per attempt.
	DefaultRetryBackoff = 2 * time.Millisecond
)

// Detector is one client's failure detector, the soft-state crutch of
// §3.1 that both substrates run: consecutive unanswered inquiries to a
// server count as strikes, and the after-th strike quarantines it; a
// broken service round trip quarantines it at once; any answer clears
// its strikes and quarantine. A server is quarantined while now < until.
// Times are offsets on the caller's clock (simulated time, or wall time
// since the client started), so the detector itself reads no clock.
//
// A nil *Detector is the inert detector of a client with quarantine
// off: it never quarantines anything. Detector is not safe for
// concurrent use; the prototype client guards it with its own mutex.
type Detector struct {
	after  int
	qfor   time.Duration
	latest time.Duration // no server is quarantined from this instant on
	state  []serverState // by server id
}

// serverState is one server's failure-detector state.
type serverState struct {
	strikes int           // consecutive unanswered inquiries
	until   time.Duration // quarantined while now < until
}

// NewDetector returns a detector that quarantines a server for quarFor
// after `after` consecutive silences, sized for server ids below
// servers (larger ids grow it). after <= 0 turns quarantine off and
// returns the inert nil detector.
func NewDetector(after int, quarFor time.Duration, servers int) *Detector {
	if after <= 0 {
		return nil
	}
	return &Detector{after: after, qfor: quarFor, state: make([]serverState, servers)}
}

// Silent records one unanswered inquiry to srv at now and reports
// whether that strike quarantined it.
//
//lint:noalloc
func (d *Detector) Silent(srv int, now time.Duration) bool {
	if d == nil {
		return false
	}
	s := d.at(srv)
	s.strikes++
	if s.strikes < d.after {
		return false
	}
	d.quarantine(s, now)
	return true
}

// Failed records a broken service round trip to srv at now — much
// stronger evidence than a silent inquiry — and quarantines srv at
// once. It reports whether it did (false only on the inert detector).
//
//lint:noalloc
func (d *Detector) Failed(srv int, now time.Duration) bool {
	if d == nil {
		return false
	}
	d.quarantine(d.at(srv), now)
	return true
}

//lint:noalloc
func (d *Detector) quarantine(s *serverState, now time.Duration) {
	s.strikes = 0
	s.until = now + d.qfor
	d.latest = max(d.latest, s.until)
}

// Answered clears srv's strikes and quarantine: an answer is proof of
// life.
//
//lint:noalloc
func (d *Detector) Answered(srv int) {
	if d == nil || srv >= len(d.state) {
		return
	}
	d.state[srv] = serverState{}
}

// at returns srv's state, growing the table to reach it.
//
//lint:noalloc
func (d *Detector) at(srv int) *serverState {
	if srv >= len(d.state) {
		//lint:allow noalloc grows once per server id beyond the sizing hint
		d.state = append(d.state, make([]serverState, srv+1-len(d.state))...)
	}
	return &d.state[srv]
}

// Live returns the members that d has not quarantined at now, and
// whether there were any; id maps a member to its server id. The
// filtered set is appended to dst[:0]. When nothing is quarantined it
// returns members itself, and when everything is it returns members
// and false: a client with nowhere believed-live to go still has to go
// somewhere, so the caller falls back to the full set.
//
//lint:noalloc
func Live[T any](d *Detector, dst, members []T, id func(T) int, now time.Duration) ([]T, bool) {
	if d == nil || now >= d.latest {
		return members, true
	}
	dst = dst[:0]
	for _, m := range members {
		if srv := id(m); srv >= len(d.state) || now >= d.state[srv].until {
			dst = append(dst, m)
		}
	}
	if len(dst) == 0 {
		return members, false
	}
	return dst, true
}

// Backoff returns the nominal backoff before retry number attempt
// (0-based): DefaultRetryBackoff doubled per attempt. Callers jitter it
// with their own random stream.
func Backoff(attempt int) time.Duration {
	if attempt > 16 {
		attempt = 16 // cap the shift; retries are bounded far below this
	}
	return DefaultRetryBackoff << uint(attempt)
}

// DegradedDemo is the canned degraded-mode schedule of the repro
// experiment: kill `kills` of n nodes (ids 0..kills-1) at offset at,
// with lossProb poll loss on every link.
func DegradedDemo(n, kills int, at time.Duration, lossProb float64, seed uint64) *Schedule {
	if kills > n {
		kills = n
	}
	s := &Schedule{Seed: seed}
	for i := 0; i < kills; i++ {
		s.Events = append(s.Events, NodeEvent{At: at, Node: i, Kind: Crash})
	}
	if lossProb > 0 {
		s.Links = []LinkRule{{Client: -1, Server: -1, Loss: lossProb}}
	}
	return s
}
