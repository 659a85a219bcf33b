package faults

import (
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
