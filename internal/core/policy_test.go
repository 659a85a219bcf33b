package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"finelb/internal/stats"
)

func TestPolicyConstructorsValidate(t *testing.T) {
	good := []Policy{
		NewRandom(), NewRoundRobin(), NewIdeal(),
		NewPoll(1), NewPoll(2), NewPoll(8),
		NewPollDiscard(3, 10*time.Millisecond),
		NewBroadcast(100 * time.Millisecond),
	}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%v: unexpected error %v", p, err)
		}
	}
	bad := []Policy{
		{Kind: Poll, PollSize: 0},
		{Kind: Poll, PollSize: 2, DiscardAfter: -time.Millisecond},
		{Kind: Broadcast},
		{Kind: Kind(99)},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", p)
		}
	}
}

func TestPolicyString(t *testing.T) {
	cases := []struct {
		p    Policy
		want string
	}{
		{NewRandom(), "random"},
		{NewIdeal(), "ideal"},
		{NewPoll(3), "poll 3"},
		{NewRoundRobin(), "round-robin"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if s := NewPollDiscard(3, 10*time.Millisecond).String(); !strings.Contains(s, "discard") {
		t.Errorf("discard policy string %q", s)
	}
	if s := NewBroadcast(time.Second).String(); !strings.Contains(s, "broadcast") {
		t.Errorf("broadcast policy string %q", s)
	}
	// The broadcast ablation variants must not share a name with the
	// plain policy: experiment cells are labeled by it.
	fixed, corrected := NewBroadcast(time.Second), NewBroadcast(time.Second)
	fixed.BroadcastFixed = true
	corrected.LocalCorrection = true
	if f, c := fixed.String(), corrected.String(); f != "broadcast 1s (fixed)" || c != "broadcast 1s (local correction)" {
		t.Errorf("ablation variant strings %q, %q", f, c)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		name string
		want Policy
	}{
		{"random", NewRandom()},
		{"rr", NewRoundRobin()},
		{"poll", NewPoll(3)},
		{"broadcast", NewBroadcast(50 * time.Millisecond)},
		{"ideal", NewIdeal()},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.name, 3, 0, 50*time.Millisecond)
		if err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q) = %+v, %v; want %+v", c.name, got, err, c.want)
		}
	}
	if got, err := ParsePolicy("poll", 2, 10*time.Millisecond, 0); err != nil || got != NewPollDiscard(2, 10*time.Millisecond) {
		t.Errorf("poll with discard = %+v, %v", got, err)
	}
	if _, err := ParsePolicy("least-loaded", 2, 0, 0); err == nil || !strings.Contains(err.Error(), "least-loaded") {
		t.Errorf("unknown policy: err %v", err)
	}
}

func TestPaperFigurePolicies(t *testing.T) {
	ps := PaperFigurePolicies()
	if len(ps) != 6 {
		t.Fatalf("got %d policies", len(ps))
	}
	if ps[0].Kind != Random || ps[5].Kind != Ideal {
		t.Fatal("random/ideal not at the expected positions")
	}
	wantD := []int{2, 3, 4, 8}
	for i, d := range wantD {
		if ps[i+1].Kind != Poll || ps[i+1].PollSize != d {
			t.Fatalf("policy %d = %v, want poll %d", i+1, ps[i+1], d)
		}
	}
}

func TestPickLeast(t *testing.T) {
	rng := stats.NewRNG(1)
	if got := PickLeast(rng, []int{5, 2, 9}); got != 1 {
		t.Fatalf("PickLeast = %d", got)
	}
	if got := PickLeast(rng, []int{7}); got != 0 {
		t.Fatalf("single = %d", got)
	}
}

func TestPickLeastTieUniformity(t *testing.T) {
	rng := stats.NewRNG(2)
	counts := make([]int, 3)
	loads := []int{1, 1, 1}
	const trials = 30000
	for i := 0; i < trials; i++ {
		counts[PickLeast(rng, loads)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-trials/3.0) > trials*0.02 {
			t.Fatalf("tie-break biased: server %d got %d/%d", i, c, trials)
		}
	}
}

func TestPickLeastPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty slice")
		}
	}()
	PickLeast(stats.NewRNG(1), nil)
}

func TestPollSet(t *testing.T) {
	rng := stats.NewRNG(3)
	ident := Identity(16)
	swaps := make([]int, 16)
	dst := make([]int, 8)
	got := PollSet(rng, 16, 3, dst, ident, swaps)
	if len(got) != 3 {
		t.Fatalf("poll set size %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 16 || seen[v] {
			t.Fatalf("bad poll set %v", got)
		}
		seen[v] = true
	}
	for i, v := range ident {
		if v != i {
			t.Fatalf("PollSet left ident[%d] = %d; identity not restored", i, v)
		}
	}
}

func TestPollSetClampsToN(t *testing.T) {
	rng := stats.NewRNG(4)
	ident := Identity(4)
	swaps := make([]int, 4)
	dst := make([]int, 8)
	got := PollSet(rng, 4, 8, dst, ident, swaps)
	if len(got) != 4 {
		t.Fatalf("clamped poll set size %d, want 4", len(got))
	}
}

func TestRoundRobinState(t *testing.T) {
	var rr RoundRobinState
	var got []int
	for i := 0; i < 7; i++ {
		got = append(got, rr.Next(3))
	}
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin sequence %v", got)
		}
	}
	// Shrinking the cluster must not go out of range.
	rr = RoundRobinState{}
	rr.Next(5)
	rr.Next(5)
	if v := rr.Next(2); v < 0 || v >= 2 {
		t.Fatalf("after shrink Next(2) = %d", v)
	}
}

func TestLoadTable(t *testing.T) {
	lt := NewLoadTable(4)
	if lt.Len() != 4 {
		t.Fatalf("len = %d", lt.Len())
	}
	lt.Update(2, 5)
	lt.Update(0, 3)
	if lt.Load(2) != 5 || lt.Load(0) != 3 || lt.Load(1) != 0 {
		t.Fatal("updates not recorded")
	}
	lt.Increment(1)
	if lt.Load(1) != 1 {
		t.Fatal("increment failed")
	}
	// Servers 3 has load 0 < everyone else after these updates? loads: 3,1,5,0.
	rng := stats.NewRNG(5)
	if got := lt.PickLeast(rng); got != 3 {
		t.Fatalf("PickLeast = %d", got)
	}
}

func TestLoadTablePanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewLoadTable(0) },
		func() { NewLoadTable(2).Update(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPickFromPolls(t *testing.T) {
	rng := stats.NewRNG(6)
	resp := []PollResponse{{Server: 4, Load: 3}, {Server: 9, Load: 1}, {Server: 2, Load: 7}}
	if got := PickFromPolls(rng, resp); got != 9 {
		t.Fatalf("PickFromPolls = %d", got)
	}
}

// Property: PickLeast always returns an index of minimal load.
func TestQuickPickLeastIsMinimal(t *testing.T) {
	f := func(seed uint64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		loads := make([]int, len(raw))
		minLoad := int(raw[0])
		for i, v := range raw {
			loads[i] = int(v)
			if loads[i] < minLoad {
				minLoad = loads[i]
			}
		}
		got := PickLeast(stats.NewRNG(seed), loads)
		return loads[got] == minLoad
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PickFromPolls returns a minimal-load respondent.
func TestQuickPickFromPolls(t *testing.T) {
	f := func(seed uint64, rawLoads []uint8) bool {
		if len(rawLoads) == 0 {
			return true
		}
		rng := stats.NewRNG(seed)
		var resp []PollResponse
		minLoad := 1 << 30
		for i, v := range rawLoads {
			resp = append(resp, PollResponse{Server: i * 3, Load: int(v)})
			if int(v) < minLoad {
				minLoad = int(v)
			}
		}
		got := PickFromPolls(rng, resp)
		for _, r := range resp {
			if r.Server == got {
				return r.Load == minLoad
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PollSet never repeats a server and stays in range.
func TestQuickPollSetDistinct(t *testing.T) {
	f := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%64) + 1
		d := int(dRaw%16) + 1
		rng := stats.NewRNG(seed)
		ident := Identity(n)
		swaps := make([]int, min(d, n))
		dst := make([]int, d)
		got := PollSet(rng, n, d, dst, ident, swaps)
		if len(got) != min(d, n) {
			return false
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestLocalLeastPolicy(t *testing.T) {
	p := NewLocalLeast()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.String() != "least-conn" {
		t.Fatalf("String = %q", p.String())
	}
}
