package core

import "finelb/internal/stats"

// LoadTable is the client-side table of perceived server load indexes
// maintained under the broadcast policy. Each client owns one; entries
// are overwritten by incoming broadcasts and (optionally, ablation A1)
// incremented locally on dispatch.
//
// The zero load index for a never-heard-from server is 0, which matches
// the prototype: a freshly published server starts idle.
//
// LoadTable is not safe for concurrent use; the prototype guards it
// with the client node's mutex.
type LoadTable struct {
	loads []int
}

// NewLoadTable returns a table for n servers, all perceived idle.
func NewLoadTable(n int) *LoadTable {
	if n <= 0 {
		panic("core: NewLoadTable with n <= 0")
	}
	return &LoadTable{loads: make([]int, n)}
}

// Len returns the number of servers tracked.
func (t *LoadTable) Len() int { return len(t.loads) }

// Update records a broadcast load index for server id.
func (t *LoadTable) Update(id, load int) {
	if load < 0 {
		panic("core: negative load index")
	}
	t.loads[id] = load
}

// Load returns the perceived load index of server id.
func (t *LoadTable) Load(id int) int { return t.loads[id] }

// Increment bumps the perceived load of server id by one (local
// correction after dispatch, ablation A1).
func (t *LoadTable) Increment(id int) { t.loads[id]++ }

// PickLeast returns the id of a least-loaded server according to the
// table, breaking ties uniformly at random.
func (t *LoadTable) PickLeast(rng *stats.RNG) int {
	return PickLeast(rng, t.loads)
}

// PollResponse is one answered load inquiry: the responding server and
// the load index it reported.
type PollResponse struct {
	Server int
	Load   int
}

// PickFromPolls returns the server id of the least-loaded respondent,
// breaking ties uniformly. responses must be non-empty.
func PickFromPolls(rng *stats.RNG, responses []PollResponse) int {
	best := 0
	ties := 1
	for i := 1; i < len(responses); i++ {
		switch {
		case responses[i].Load < responses[best].Load:
			best, ties = i, 1
		case responses[i].Load == responses[best].Load:
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	return responses[best].Server
}

// PickUnanswered returns the index, among n polled servers, of the one a
// round with no answers falls back to: uniform, with one draw from rng.
func PickUnanswered(rng *stats.RNG, n int) int { return rng.Intn(n) }
