package faults

import (
	"math"
	"time"

	"finelb/internal/core"
	"finelb/internal/stats"
)

// Access is one service access's retry-and-fallback machine: the
// client algorithm after a poll round closes or a round trip breaks,
// kept once for both substrates. The simulator keeps one in each access
// record and the prototype one on Access's stack. It does no I/O and
// reads no clock: each method takes what happened and returns the next
// step, drawing from the stream the caller passes. The zero value is an
// access before its first attempt.
type Access struct {
	round   int // silent rounds re-polled in this attempt
	attempt int // failed attempts retried
}

// Step is what an access does next.
type Step uint8

const (
	Poll         Step = iota // poll the fresh candidates
	PickAnswered             // dispatch to server Next.Pick, the least-loaded answer
	PickPolled               // dispatch to the server polled in slot Next.Pick
	PickAny                  // dispatch to a live candidate drawn uniformly
	Repoll                   // after Next.Wait, start a round again (Access.Poll)
	Retry                    // after Next.Wait, select a server afresh
	GiveUp                   // report the access failed
)

// Next is a Step and its operands.
type Next struct {
	Step Step
	Pick int // PickAnswered's server or PickPolled's slot
	n    int // the Repoll's round or the Retry's attempt
}

// Wait draws the jittered wait before a Repoll or Retry from rng.
//
//lint:noalloc
func (n Next) Wait(rng *stats.RNG) time.Duration { return Backoff(rng, n.n) }

// Poll starts a round: Poll while any candidate is fresh (not
// quarantined), else PickAny, since polling only servers believed dead
// is pointless.
//
//lint:noalloc
func (a *Access) Poll(fresh bool) Step {
	if fresh {
		return Poll
	}
	return PickAny
}

// Round closes a round of polled inquiries. With answers it picks the
// least loaded. Without, it picks a polled server unless retrySilent,
// else re-polls DefaultPollRetries times and then picks any. Picks draw
// from rng, the caller's policy stream.
//
//lint:noalloc
func (a *Access) Round(rng *stats.RNG, answers []core.PollResponse, polled int, retrySilent bool) Next {
	switch {
	case len(answers) > 0:
		return Next{Step: PickAnswered, Pick: core.PickFromPolls(rng, answers)}
	case !retrySilent:
		return Next{Step: PickPolled, Pick: core.PickUnanswered(rng, polled)}
	case a.round < DefaultPollRetries:
		a.round++
		return Next{Step: Repoll, n: a.round - 1}
	}
	return Next{Step: PickAny}
}

// Failed closes an attempt whose round trip broke: Retry, with its poll
// rounds counted afresh, DefaultAccessRetries times, then GiveUp. An
// IDEAL access (ideal) is retried only when retryIdeal.
//
//lint:noalloc
func (a *Access) Failed(ideal, retryIdeal bool) Next {
	if a.attempt >= DefaultAccessRetries || ideal && !retryIdeal {
		return Next{Step: GiveUp}
	}
	a.attempt++
	a.round = 0
	return Next{Step: Retry, n: a.attempt - 1}
}

// Backoff returns the wait before retry number attempt (0-based):
// DefaultRetryBackoff doubled per attempt, jittered over [0.5, 1.5)x by
// one draw from rng, rounded to the nanosecond.
//
//lint:noalloc
func Backoff(rng *stats.RNG, attempt int) time.Duration {
	base := DefaultRetryBackoff << uint(min(attempt, 16)) // retries stop far below the cap
	return time.Duration(math.Round(base.Seconds() * (0.5 + rng.Float64()) * 1e9))
}
