// Package core implements the paper's load-balancing policies as
// substrate-independent decision logic. The same code drives both the
// discrete-event simulation (internal/simcluster, Figures 2-4) and the
// real-socket prototype (internal/cluster, Figure 6 and Table 2), which
// is what makes the paper's simulation-versus-prototype comparison
// meaningful.
//
// A policy here is the *selection rule*: which servers to probe and
// which of the observed candidates receives the access. The mechanics —
// how a probe travels, how long it takes, when it is discarded — belong
// to the substrate.
package core

import (
	"fmt"
	"time"

	"finelb/internal/stats"
)

// Kind enumerates the policy families studied in the paper.
type Kind int

const (
	// Random dispatches each access to a uniformly random server.
	Random Kind = iota
	// RoundRobin cycles through servers per client. (Baseline; not in
	// the paper's figures but standard in every comparison suite.)
	RoundRobin
	// Poll is the random polling policy (§2.3, §3): poll PollSize random
	// servers for their load index and dispatch to the least loaded.
	Poll
	// Broadcast is the server-push policy (§2.2): servers broadcast load
	// indexes at jittered intervals; clients dispatch to the least
	// loaded perceived server.
	Broadcast
	// Ideal acquires every server's accurate load index free of cost at
	// each access (§2, §4) and dispatches to the least loaded.
	Ideal
	// LocalLeast dispatches to the server with the fewest of *this
	// client's own* outstanding accesses — no messages at all. It is not
	// in the paper; it is the "least connections" rule modern proxies
	// (NGINX, HAProxy) apply per instance, included as a
	// modern-relevance baseline (ablation A4).
	LocalLeast
)

// String returns the paper's name for the policy family.
func (k Kind) String() string {
	switch k {
	case Random:
		return "random"
	case RoundRobin:
		return "round-robin"
	case Poll:
		return "poll"
	case Broadcast:
		return "broadcast"
	case Ideal:
		return "ideal"
	case LocalLeast:
		return "least-conn"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Policy is a complete policy specification.
type Policy struct {
	Kind Kind

	// PollSize is the number of servers polled per access (Kind == Poll).
	PollSize int

	// DiscardAfter, when positive, is the slow-poll discard threshold of
	// §3.2: polls not answered within this duration are abandoned and
	// the decision is made from the responses at hand (Kind == Poll).
	DiscardAfter time.Duration

	// BroadcastInterval is the mean interval between per-server load
	// broadcasts (Kind == Broadcast). Actual intervals are jittered
	// uniformly over [0.5, 1.5] x mean unless BroadcastFixed is set.
	BroadcastInterval time.Duration

	// BroadcastFixed disables interval jitter. It exists only for the
	// self-synchronization ablation (A2); the paper stresses intervals
	// must be non-fixed (Floyd-Jacobson).
	BroadcastFixed bool

	// LocalCorrection, for Broadcast, makes each client increment its
	// own perceived load index for the chosen server on dispatch,
	// partially compensating the flocking effect (ablation A1). The
	// paper's broadcast policy does not do this.
	LocalCorrection bool
}

// NewRandom returns the pure random policy.
func NewRandom() Policy { return Policy{Kind: Random} }

// NewRoundRobin returns the per-client round-robin policy.
func NewRoundRobin() Policy { return Policy{Kind: RoundRobin} }

// NewPoll returns the random polling policy with poll size d.
func NewPoll(d int) Policy { return Policy{Kind: Poll, PollSize: d} }

// NewPollDiscard returns random polling with the slow-poll discard
// optimization of §3.2.
func NewPollDiscard(d int, after time.Duration) Policy {
	return Policy{Kind: Poll, PollSize: d, DiscardAfter: after}
}

// NewBroadcast returns the broadcast policy with the given mean
// broadcast interval (jittered).
func NewBroadcast(meanInterval time.Duration) Policy {
	return Policy{Kind: Broadcast, BroadcastInterval: meanInterval}
}

// NewIdeal returns the IDEAL reference policy.
func NewIdeal() Policy { return Policy{Kind: Ideal} }

// NewLocalLeast returns the message-free, client-local least-connections
// policy (ablation A4; not part of the paper).
func NewLocalLeast() Policy { return Policy{Kind: LocalLeast} }

// ParsePolicy builds a policy from the command-line tools' -policy
// name and their -d, -discard and -interval values: random, rr, poll
// (poll size d, slow-poll discard after discard when positive),
// broadcast (mean interval), or ideal.
func ParsePolicy(name string, d int, discard, interval time.Duration) (Policy, error) {
	switch name {
	case "random":
		return NewRandom(), nil
	case "rr":
		return NewRoundRobin(), nil
	case "poll":
		return NewPollDiscard(d, discard), nil
	case "broadcast":
		return NewBroadcast(interval), nil
	case "ideal":
		return NewIdeal(), nil
	default:
		return Policy{}, fmt.Errorf("unknown policy %q (want random, rr, poll, broadcast, or ideal)", name)
	}
}

// Validate reports whether the policy's parameters are coherent.
func (p Policy) Validate() error {
	switch p.Kind {
	case Random, RoundRobin, Ideal, LocalLeast:
		return nil
	case Poll:
		if p.PollSize < 1 {
			return fmt.Errorf("core: poll size %d < 1", p.PollSize)
		}
		if p.DiscardAfter < 0 {
			return fmt.Errorf("core: negative discard threshold %v", p.DiscardAfter)
		}
		return nil
	case Broadcast:
		if p.BroadcastInterval <= 0 {
			return fmt.Errorf("core: broadcast interval %v <= 0", p.BroadcastInterval)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown policy kind %d", int(p.Kind))
	}
}

// String names the policy the way the paper's figure legends do.
func (p Policy) String() string {
	switch p.Kind {
	case Poll:
		if p.DiscardAfter > 0 {
			return fmt.Sprintf("poll %d (discard >%v)", p.PollSize, p.DiscardAfter)
		}
		return fmt.Sprintf("poll %d", p.PollSize)
	case Broadcast:
		s := fmt.Sprintf("broadcast %v", p.BroadcastInterval)
		if p.BroadcastFixed {
			s += " (fixed)"
		}
		if p.LocalCorrection {
			s += " (local correction)"
		}
		return s
	default:
		return p.Kind.String()
	}
}

// PaperFigurePolicies returns the policy set of Figures 4 and 6:
// random, poll sizes 2, 3, 4, 8, and IDEAL.
func PaperFigurePolicies() []Policy {
	return []Policy{
		NewRandom(),
		NewPoll(2), NewPoll(3), NewPoll(4), NewPoll(8),
		NewIdeal(),
	}
}

// PickLeast returns the position (index into loads) of the smallest
// load value, breaking ties uniformly at random so that equal-load
// servers share traffic. It panics on an empty slice.
func PickLeast(rng *stats.RNG, loads []int) int {
	if len(loads) == 0 {
		panic("core: PickLeast on empty slice")
	}
	best := 0
	ties := 1
	for i := 1; i < len(loads); i++ {
		switch {
		case loads[i] < loads[best]:
			best, ties = i, 1
		case loads[i] == loads[best]:
			// Reservoir-sample among ties for a uniform choice.
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return best
}

// PollSet fills dst with min(d, n) distinct uniformly chosen server ids
// from [0, n) and returns it. ident must hold the identity permutation
// over at least n entries (ident[i] == i); it is restored before
// returning, so one shared identity slice serves every call. swaps is
// scratch of length >= min(d, n). When d >= n every server is polled,
// matching the paper's prototype which polls "a certain number of
// servers out of the available set".
//
// The random stream consumed is identical to the historical
// Choose-based implementation, but each call is O(d) rather than O(n) —
// at 10k servers and poll size 2 that is the whole hot path.
func PollSet(rng *stats.RNG, n, d int, dst, ident, swaps []int) []int {
	if n <= 0 {
		panic("core: PollSet with no servers")
	}
	if d > n {
		d = n
	}
	dst = dst[:d]
	rng.ChooseIdentity(dst, n, ident, swaps)
	return dst
}

// Identity returns the identity permutation of length n, the ident
// argument PollSet expects.
func Identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// RoundRobinState is the per-client cursor for the round-robin policy.
type RoundRobinState struct{ next int }

// Next returns the next server id for a cluster of n servers.
func (s *RoundRobinState) Next(n int) int {
	if n <= 0 {
		panic("core: RoundRobinState.Next with no servers")
	}
	v := s.next % n
	s.next = (v + 1) % n
	return v
}
