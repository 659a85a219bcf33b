// Package membership is the elastic-membership seam: a deterministic,
// seedable schedule of servers joining, draining, and leaving the pool
// mid-run, consumed identically by the real-socket prototype
// (internal/cluster) and the discrete-event simulator
// (internal/simcluster).
//
// The paper fixes the server set for the life of a run; internal/faults
// generalized that to crash/pause/resume but still never *grows* the
// pool. This package completes the generalization: a Schedule is pure
// data — which node changes state, when, and how — so the same schedule
// replayed with the same seed drives identical membership decisions on
// either substrate. The autoscaler (autoscaler.go) emits the same
// events from observed load instead of a precomputed plan.
package membership

import (
	"fmt"
	"sort"
	"time"
)

// Kind enumerates membership events.
type Kind int

const (
	// Join adds a node to the routable pool. Joining a node id the run
	// has never seen grows the pool; re-joining a drained or departed id
	// restores it. A freshly joined node starts empty (load 0).
	Join Kind = iota
	// Drain removes a node from the routable pool but keeps it serving:
	// no new work is dispatched to it, yet queued and in-flight accesses
	// complete normally. This is the graceful half of a scale-down.
	Drain
	// Leave retires a node after its drain: it stops serving entirely
	// and its directory entries are withdrawn. Work still queued at
	// leave time completes first (the substrates never drop accepted
	// work on a planned departure — that is what faults.Crash is for).
	Leave
)

// String names the event kind.
func (k Kind) String() string {
	switch k {
	case Join:
		return "join"
	case Drain:
		return "drain"
	case Leave:
		return "leave"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled membership change.
type Event struct {
	At   time.Duration // offset from the start of the run
	Node int           // target server node id
	Kind Kind
}

// Schedule is a complete membership plan. The zero value (or nil)
// changes nothing: the pool stays [0, Servers) for the whole run and
// runners treat it exactly like no schedule at all, so the fixed-pool
// fast path stays bit-identical.
type Schedule struct {
	// Seed drives any random membership decision a substrate needs
	// (none today; reserved so schedules fingerprint like faults ones).
	Seed   uint64
	Events []Event
}

// Validate reports whether the schedule is coherent.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("membership: event %d at negative offset %v", i, ev.At)
		}
		if ev.Node < 0 {
			return fmt.Errorf("membership: event %d targets node %d", i, ev.Node)
		}
		if ev.Kind < Join || ev.Kind > Leave {
			return fmt.Errorf("membership: event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// Active reports whether the schedule actually changes membership. A
// nil or empty schedule is inert.
func (s *Schedule) Active() bool {
	return s != nil && len(s.Events) > 0
}

// Sorted returns a copy of the events ordered by offset (stable, so
// same-instant events keep their declaration order).
func (s *Schedule) Sorted() []Event {
	if s == nil {
		return nil
	}
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// MaxNode returns the largest node id the schedule touches, or -1 for
// an inert schedule. Runners size their grown-pool capacity from it.
func (s *Schedule) MaxNode() int {
	max := -1
	if s == nil {
		return max
	}
	for _, ev := range s.Events {
		if ev.Node > max {
			max = ev.Node
		}
	}
	return max
}

// ScaleCycle is a canned schedule for demos and tests: grow the pool
// from n to n+extra at grow, then drain and retire the added nodes at
// shrink (drain) and shrink+settle (leave).
func ScaleCycle(n, extra int, grow, shrink, settle time.Duration, seed uint64) *Schedule {
	s := &Schedule{Seed: seed}
	for i := 0; i < extra; i++ {
		s.Events = append(s.Events, Event{At: grow, Node: n + i, Kind: Join})
	}
	for i := 0; i < extra; i++ {
		s.Events = append(s.Events, Event{At: shrink, Node: n + i, Kind: Drain})
	}
	for i := 0; i < extra; i++ {
		s.Events = append(s.Events, Event{At: shrink + settle, Node: n + i, Kind: Leave})
	}
	return s
}
