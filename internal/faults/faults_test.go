package faults

import (
	"fmt"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	var nilSched *Schedule
	if err := nilSched.Validate(); err != nil {
		t.Fatalf("nil schedule should validate: %v", err)
	}
	good := &Schedule{
		Events: []NodeEvent{{At: 10 * time.Millisecond, Node: 3, Kind: Crash}},
		Links:  []LinkRule{{Client: -1, Server: 1, Loss: 0.5, Latency: time.Millisecond}},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	bad := []*Schedule{
		{Events: []NodeEvent{{At: -time.Second, Node: 0, Kind: Crash}}},
		{Events: []NodeEvent{{At: 0, Node: -2, Kind: Crash}}},
		{Events: []NodeEvent{{At: 0, Node: 0, Kind: Kind(9)}}},
		{Links: []LinkRule{{Loss: 1.5}}},
		{Links: []LinkRule{{Loss: -0.1}}},
		{Links: []LinkRule{{Latency: -time.Millisecond}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestSortedIsStable(t *testing.T) {
	s := &Schedule{Events: []NodeEvent{
		{At: 30 * time.Millisecond, Node: 2, Kind: Crash},
		{At: 10 * time.Millisecond, Node: 0, Kind: Pause},
		{At: 10 * time.Millisecond, Node: 1, Kind: Pause},
	}}
	got := s.Sorted()
	want := []NodeEvent{
		{At: 10 * time.Millisecond, Node: 0, Kind: Pause},
		{At: 10 * time.Millisecond, Node: 1, Kind: Pause},
		{At: 30 * time.Millisecond, Node: 2, Kind: Crash},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	// Original order untouched.
	if s.Events[0].At != 30*time.Millisecond {
		t.Error("Sorted mutated the schedule")
	}
}

func TestRuleFirstMatchWins(t *testing.T) {
	s := &Schedule{Links: []LinkRule{
		{Client: 0, Server: 1, Loss: 0.9},
		{Client: -1, Server: -1, Loss: 0.1},
	}}
	if r, ok := s.Rule(0, 1); !ok || r.Loss != 0.9 {
		t.Errorf("specific rule not matched: %v %v", r, ok)
	}
	if r, ok := s.Rule(2, 1); !ok || r.Loss != 0.1 {
		t.Errorf("wildcard rule not matched: %v %v", r, ok)
	}
	empty := &Schedule{}
	if _, ok := empty.Rule(0, 0); ok {
		t.Error("empty schedule matched a rule")
	}
}

func TestLinkStateDeterminism(t *testing.T) {
	s := &Schedule{Seed: 42, Links: []LinkRule{{Client: -1, Server: -1, Loss: 0.5, Latency: time.Millisecond}}}
	draw := func(client int) []bool {
		ls := s.NewLinkState(client)
		out := make([]bool, 64)
		for i := range out {
			drop, delay := ls.PollFault(i % 4)
			if !drop && delay != time.Millisecond {
				t.Fatalf("surviving answer lost its latency: %v", delay)
			}
			out[i] = drop
		}
		return out
	}
	a, b := draw(1), draw(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same client diverged at draw %d", i)
		}
	}
	c := draw(2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different clients produced identical loss streams")
	}
}

func TestLinkStateNilSafe(t *testing.T) {
	var nilSched *Schedule
	if ls := nilSched.NewLinkState(0); ls != nil {
		t.Error("nil schedule produced a link state")
	}
	var ls *LinkState
	if drop, delay := ls.PollFault(3); drop || delay != 0 {
		t.Errorf("nil LinkState injected a fault: %v %v", drop, delay)
	}
}

func TestBackoff(t *testing.T) {
	if got := Backoff(0); got != DefaultRetryBackoff {
		t.Errorf("attempt 0: %v", got)
	}
	if got := Backoff(3); got != 8*DefaultRetryBackoff {
		t.Errorf("attempt 3: %v", got)
	}
	if got := Backoff(40); got != DefaultRetryBackoff<<16 {
		t.Errorf("capped shift: %v", got)
	}
}

func TestDegradedDemo(t *testing.T) {
	s := DegradedDemo(16, 2, 100*time.Millisecond, 0.05, 7)
	if err := s.Validate(); err != nil {
		t.Fatalf("demo schedule invalid: %v", err)
	}
	if len(s.Events) != 2 {
		t.Fatalf("want 2 crash events, got %d", len(s.Events))
	}
	for i, ev := range s.Events {
		if ev.Kind != Crash || ev.Node != i || ev.At != 100*time.Millisecond {
			t.Errorf("event %d: %+v", i, ev)
		}
	}
	if len(s.Links) != 1 || s.Links[0].Loss != 0.05 || s.Links[0].Client != -1 || s.Links[0].Server != -1 {
		t.Errorf("links: %+v", s.Links)
	}
	if s2 := DegradedDemo(2, 5, 0, 0, 1); len(s2.Events) != 2 || len(s2.Links) != 0 {
		t.Errorf("clamped demo: %+v", s2)
	}
}

// TestDetectorRules drives one detector through a script of events and
// checks, after each, which of servers 0..3 it has quarantined.
func TestDetectorRules(t *testing.T) {
	const qfor = 10 * time.Second
	type step struct {
		at   time.Duration
		op   string // "silent", "failed", "answered" or "check"
		srv  int
		want []int // quarantined servers at `at` ("check" only)
	}
	for _, tc := range []struct {
		name  string
		after int
		steps []step
	}{
		{"quarantine on the Nth silence", 3, []step{
			{0, "silent", 1, nil}, {1, "silent", 1, nil},
			{2, "check", 0, nil},
			{2, "silent", 1, nil},
			{2, "check", 0, []int{1}},
		}},
		{"failed access quarantines at once", 3, []step{
			{5, "failed", 2, nil},
			{5, "check", 0, []int{2}},
		}},
		{"answer clears strikes and quarantine", 2, []step{
			{0, "silent", 0, nil}, {0, "answered", 0, nil}, {0, "silent", 0, nil},
			{0, "check", 0, nil}, // the answer reset the count
			{0, "failed", 3, nil}, {1, "answered", 3, nil},
			{1, "check", 0, nil},
		}},
		{"release exactly at until", 1, []step{
			{7, "silent", 0, nil}, {8, "silent", 1, nil},
			{7 + qfor - 1, "check", 0, []int{0, 1}},
			{7 + qfor, "check", 0, []int{1}},
			{8 + qfor, "check", 0, nil},
		}},
		{"quarantine restarts the strike count", 2, []step{
			{0, "silent", 0, nil}, {0, "silent", 0, nil},
			{qfor, "silent", 0, nil},
			{qfor, "check", 0, nil},
		}},
		{"every server quarantined falls back to all", 3, []step{
			{0, "failed", 0, nil}, {0, "failed", 1, nil}, {0, "failed", 2, nil}, {0, "failed", 3, nil},
			{1, "check", 0, []int{0, 1, 2, 3}},
		}},
		{"QuarantineAfter 0 is inert", 0, []step{
			{0, "silent", 0, nil}, {0, "silent", 0, nil}, {0, "failed", 1, nil},
			{1, "check", 0, nil},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDetector(tc.after, qfor, 2) // ids 2 and 3 grow the table
			members := []int{0, 1, 2, 3}
			for i, s := range tc.steps {
				switch s.op {
				case "silent":
					d.Silent(s.srv, s.at)
				case "failed":
					d.Failed(s.srv, s.at)
				case "answered":
					d.Answered(s.srv)
				case "check":
					live, fresh := Live(d, nil, members, func(m int) int { return m }, s.at)
					quarantined := map[int]bool{}
					for _, q := range s.want {
						quarantined[q] = true
					}
					var wantLive []int
					for _, m := range members {
						if !quarantined[m] {
							wantLive = append(wantLive, m)
						}
					}
					if len(wantLive) == 0 {
						wantLive = members // nowhere believed live: the full set
					}
					if fmt.Sprint(live) != fmt.Sprint(wantLive) || fresh != (len(s.want) < len(members)) {
						t.Fatalf("step %d at %v: live %v fresh %v, want %v quarantined", i, s.at, live, fresh, s.want)
					}
				}
			}
		})
	}
}

// TestDetectorReportsQuarantines checks the transitions Silent and
// Failed report, which callers count as quarantine events.
func TestDetectorReportsQuarantines(t *testing.T) {
	d := NewDetector(2, time.Second, 1)
	if d.Silent(0, 0) || !d.Silent(0, 0) || d.Silent(0, 0) {
		t.Fatal("Silent must report exactly the second consecutive strike")
	}
	if !d.Failed(0, 0) {
		t.Fatal("Failed must report its quarantine")
	}
	var off *Detector
	if off.Silent(0, 0) || off.Failed(0, 0) {
		t.Fatal("the inert detector reported a quarantine")
	}
}
