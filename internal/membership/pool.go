package membership

import (
	"fmt"
	"sort"
	"time"

	"finelb/internal/obs"
)

// MaxPool returns the largest server id space a run can reach: the
// initial pool, every id the schedule names, and the autoscaler's
// ceiling. Fixed-pool runs get servers back unchanged.
func MaxPool(servers int, s *Schedule, as *AutoscalerConfig) int {
	n := servers
	if m := s.MaxNode() + 1; m > n {
		n = m
	}
	if as.Active() && as.Max > n {
		n = as.Max
	}
	return n
}

// Check validates an elastic run's plan against its initial pool.
func Check(servers int, s *Schedule, as *AutoscalerConfig) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := as.Validate(); err != nil {
		return err
	}
	if as.Active() && as.Max < servers {
		return fmt.Errorf("membership: autoscaler max pool %d below initial %d servers", as.Max, servers)
	}
	return nil
}

// Substrate carries out a Pool's decisions. The pool decides which id
// joins, drains, or leaves and keeps the books; the substrate owns
// what that means for its servers (starting a process, attaching an
// index, publishing a directory entry).
type Substrate interface {
	// Start readies id to take new work — a fresh server, or a drained
	// or retired one coming back — before the pool counts it routable.
	// Returning false vetoes the join.
	Start(id int) bool
	// Changed carries out a transition the pool has just recorded.
	Changed(kind Kind, id int)
	// Load returns id's outstanding accesses (queued plus in service).
	Load(id int) int
}

// state is one id's place in the pool.
type state uint8

const (
	absent   state = iota // never joined
	routable              // takes new work
	draining              // withdrawn from routing, still serving its queue
	retiring              // draining, and retires as soon as it is idle
	left                  // retired from the run
)

// Pool is the membership bookkeeping both substrates share: each id's
// state, the sorted list of routable members policies draw from, and
// the churn counters. Its rules are the whole membership policy:
//
//   - the last routable member never drains;
//   - a routable id drains before it leaves;
//   - a scale-up joins the lowest id that is neither routable nor left,
//     then the lowest retired id;
//   - a scale-down drains the highest routable id first and retires it
//     once idle.
//
// Ids live in [0, limit); the member list is kept sorted so policy
// draws are deterministic. Churn mutates it in O(pool), which is fine —
// churn is orders of magnitude rarer than dispatch. A Pool is not safe
// for concurrent use.
type Pool struct {
	sub     Substrate
	mm      *obs.MembershipMetrics
	state   []state
	members []int
}

// NewPool returns a pool whose ids [0, initial) are routable, with room
// for ids up to limit. mm receives the membership metrics; nil keeps
// them in a private registry.
func NewPool(initial, limit int, sub Substrate, mm *obs.MembershipMetrics) *Pool {
	if mm == nil {
		mm = obs.NewMembershipMetrics(nil)
	}
	p := &Pool{
		sub:     sub,
		mm:      mm,
		state:   make([]state, limit),
		members: make([]int, initial, limit),
	}
	for id := 0; id < initial; id++ {
		p.state[id] = routable
		p.members[id] = id
	}
	mm.Pool.Set(int64(initial))
	return p
}

// Members returns the routable ids in increasing order. The slice is
// the pool's own; callers must not modify or retain it across churn.
func (p *Pool) Members() []int { return p.members }

// Size returns the routable pool size.
func (p *Pool) Size() int { return len(p.members) }

// Routable reports whether id takes new work.
func (p *Pool) Routable(id int) bool { return p.is(id, routable) }

// Retiring reports whether id is a drained id waiting to go idle.
func (p *Pool) Retiring(id int) bool { return p.is(id, retiring) }

func (p *Pool) is(id int, s state) bool {
	return id >= 0 && id < len(p.state) && p.state[id] == s
}

// Stats returns the churn counters and the routable pool's current and
// peak size, read from the pool's membership metrics.
func (p *Pool) Stats() (joins, drains, leaves int64, final, peak int) {
	return p.mm.Joins.Value(), p.mm.Drains.Value(), p.mm.Leaves.Value(), len(p.members), int(p.mm.Pool.High())
}

// Apply plays one schedule event. Returns whether the pool changed.
func (p *Pool) Apply(ev Event) bool {
	switch ev.Kind {
	case Join:
		return p.Join(ev.Node)
	case Drain:
		return p.Drain(ev.Node)
	case Leave:
		return p.Leave(ev.Node)
	}
	return false
}

// Join makes id routable. Returns whether the pool changed.
func (p *Pool) Join(id int) bool {
	if id < 0 || id >= len(p.state) || p.state[id] == routable || !p.sub.Start(id) {
		return false
	}
	p.state[id] = routable
	i := sort.SearchInts(p.members, id)
	p.members = append(p.members, 0)
	copy(p.members[i+1:], p.members[i:])
	p.members[i] = id
	p.mm.Joins.Inc()
	p.mm.Pool.Set(int64(len(p.members)))
	p.sub.Changed(Join, id)
	return true
}

// Drain withdraws a routable id from routing while it keeps serving its
// queue. The last routable member never drains. Returns whether the
// pool changed.
func (p *Pool) Drain(id int) bool {
	if !p.Routable(id) || len(p.members) <= 1 {
		return false
	}
	p.state[id] = draining
	i := sort.SearchInts(p.members, id)
	p.members = append(p.members[:i], p.members[i+1:]...)
	p.mm.Drains.Inc()
	p.mm.Pool.Set(int64(len(p.members)))
	p.sub.Changed(Drain, id)
	return true
}

// Leave retires id, draining it first when it is still routable. An id
// that never joined, has already left, or is the last routable member
// is refused. Returns whether anything changed.
func (p *Pool) Leave(id int) bool {
	if id < 0 || id >= len(p.state) || p.state[id] == absent || p.state[id] == left {
		return false
	}
	if p.state[id] == routable && !p.Drain(id) {
		return false
	}
	p.state[id] = left
	p.mm.Leaves.Inc()
	p.sub.Changed(Leave, id)
	return true
}

// RetireIdle retires every retiring id that has gone idle. A substrate
// that learns of idleness only by sampling calls it on its own clock;
// one that sees each queue empty retires the id there instead.
func (p *Pool) RetireIdle() {
	for id, s := range p.state {
		if s == retiring && p.sub.Load(id) == 0 {
			p.Leave(id)
		}
	}
}

// Autoscale runs one autoscaler evaluation at elapsed run time now:
// sample the routable members' mean outstanding load, ask the policy
// for a delta, and apply it.
func (p *Pool) Autoscale(as *Autoscaler, now time.Duration) {
	outstanding := 0
	for _, id := range p.members {
		outstanding += p.sub.Load(id)
	}
	load := 0.0
	if len(p.members) > 0 {
		load = float64(outstanding) / float64(len(p.members))
	}
	p.scale(as.Evaluate(now, len(p.members), load))
}

// scale applies a pool delta: +k joins k ids in join order, -k drains
// the k highest routable ids (never the last one), retiring each at
// once if it is already idle.
func (p *Pool) scale(delta int) {
	switch {
	case delta > 0:
		added := 0
		// Ids that never left (fresh or drained) first, then retired ones.
		for _, wantLeft := range [2]bool{false, true} {
			for id := 0; id < len(p.state) && added < delta; id++ {
				if s := p.state[id]; s != routable && (s == left) == wantLeft && p.Join(id) {
					added++
				}
			}
		}
		if added > 0 {
			p.mm.ScaleUps.Inc()
		}
	case delta < 0:
		removed := 0
		for removed < -delta {
			id := p.members[len(p.members)-1]
			if !p.Drain(id) {
				break
			}
			removed++
			p.state[id] = retiring
			if p.sub.Load(id) == 0 {
				p.Leave(id)
			}
		}
		if removed > 0 {
			p.mm.ScaleDowns.Inc()
		}
	}
}
