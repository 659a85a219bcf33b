package faults

import (
	"testing"

	"finelb/internal/core"
	"finelb/internal/stats"
)

// step is one input to an Access and the step it must return. pick is
// PickAnswered's server; n is the doubling of a Repoll's or Retry's
// wait.
type step struct {
	do   func(*Access, *stats.RNG) Next
	want Step
	pick int
	n    int
}

var answers = []core.PollResponse{{Server: 7, Load: 2}, {Server: 4, Load: 0}, {Server: 9, Load: 5}}

func answered(a *Access, rng *stats.RNG) Next { return a.Round(rng, answers, 3, true) }
func silent(a *Access, rng *stats.RNG) Next   { return a.Round(rng, nil, 3, true) }
func discarded(a *Access, rng *stats.RNG) Next {
	return a.Round(rng, nil, 3, false)
}

func poll(fresh bool) func(*Access, *stats.RNG) Next {
	return func(a *Access, _ *stats.RNG) Next { return Next{Step: a.Poll(fresh)} }
}

func failed(ideal, retryIdeal bool) func(*Access, *stats.RNG) Next {
	return func(a *Access, _ *stats.RNG) Next { return a.Failed(ideal, retryIdeal) }
}

func TestAccessSteps(t *testing.T) {
	retry := func(n int) step { return step{do: failed(false, false), want: Retry, n: n} }
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"fresh candidates are polled", []step{{do: poll(true), want: Poll}}},
		{"all quarantined picks any", []step{{do: poll(false), want: PickAny}}},
		{"answered round picks the least loaded", []step{{do: answered, want: PickAnswered, pick: 4}}},
		{"silent round 0 re-polls the fresh candidates", []step{
			{do: silent, want: Repoll, n: 0}, {do: poll(true), want: Poll}, {do: answered, want: PickAnswered, pick: 4}}},
		{"silent round 0 then all quarantined picks any", []step{
			{do: silent, want: Repoll, n: 0}, {do: poll(false), want: PickAny}}},
		{"last silent round picks any live candidate", []step{
			{do: silent, want: Repoll, n: 0}, {do: poll(true), want: Poll}, {do: silent, want: PickAny}}},
		{"silent round without retrySilent picks a polled server", []step{{do: discarded, want: PickPolled}}},
		{"silent round without retrySilent never re-polls", []step{
			{do: silent, want: Repoll, n: 0}, {do: discarded, want: PickPolled}}},
		{"failed attempts 0-2 retry, attempt 3 gives up", []step{
			retry(0), retry(1), retry(2), {do: failed(false, false), want: GiveUp}}},
		{"a retry counts poll rounds afresh", []step{
			{do: silent, want: Repoll, n: 0}, {do: silent, want: PickAny},
			retry(0), {do: silent, want: Repoll, n: 0}, {do: silent, want: PickAny}}},
		{"IDEAL without retryIdeal gives up at once", []step{{do: failed(true, false), want: GiveUp}}},
		{"IDEAL with retryIdeal retries like any access", []step{
			{do: failed(true, true), want: Retry, n: 0}, {do: failed(true, true), want: Retry, n: 1},
			{do: failed(true, true), want: Retry, n: 2}, {do: failed(true, true), want: GiveUp}}},
		{"retryIdeal does not matter outside IDEAL", []step{{do: failed(false, true), want: Retry, n: 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var a Access
			rng := stats.NewRNG(3)
			for i, s := range tc.steps {
				next := s.do(&a, rng)
				if next.Step != s.want {
					t.Fatalf("step %d: %d, want %d", i, next.Step, s.want)
				}
				switch next.Step {
				case PickAnswered:
					if next.Pick != s.pick {
						t.Fatalf("step %d: picked %d, want %d", i, next.Pick, s.pick)
					}
				case PickPolled:
					if next.Pick < 0 || next.Pick >= 3 {
						t.Fatalf("step %d: picked slot %d of 3", i, next.Pick)
					}
				case Repoll, Retry:
					if got, want := next.Wait(stats.NewRNG(5)), Backoff(stats.NewRNG(5), s.n); got != want {
						t.Fatalf("step %d: wait %v, want Backoff(%d) = %v", i, got, s.n, want)
					}
				}
			}
		})
	}
}

// TestAccessZeroAllocs: the machine runs on every simulated access and
// every prototype access, so no step may allocate.
func TestAccessZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	rng := stats.NewRNG(1)
	var sink Step
	avg := testing.AllocsPerRun(1000, func() {
		var a Access
		sink += a.Poll(true)
		sink += a.Round(rng, nil, 3, true).Step
		sink += a.Round(rng, answers, 3, true).Step
		sink += a.Round(rng, nil, 3, false).Step
		next := a.Failed(false, false)
		sink += next.Step + Step(next.Wait(rng)&1)
	})
	if avg != 0 {
		t.Errorf("Access steps allocate %.2f allocs/op, want 0", avg)
	}
	_ = sink
}
