package membership

import (
	"testing"
	"time"
)

func TestScheduleValidate(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
		ok   bool
	}{
		{"nil", nil, true},
		{"empty", &Schedule{}, true},
		{"good", &Schedule{Events: []Event{{At: time.Second, Node: 3, Kind: Join}}}, true},
		{"negative offset", &Schedule{Events: []Event{{At: -1, Node: 0, Kind: Join}}}, false},
		{"negative node", &Schedule{Events: []Event{{At: 0, Node: -1, Kind: Drain}}}, false},
		{"bad kind", &Schedule{Events: []Event{{At: 0, Node: 0, Kind: Kind(9)}}}, false},
	}
	for _, c := range cases {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%t", c.name, err, c.ok)
		}
	}
}

func TestScheduleActiveAndMaxNode(t *testing.T) {
	var nilSched *Schedule
	if nilSched.Active() || (&Schedule{}).Active() {
		t.Fatal("nil/empty schedule must be inert")
	}
	if got := nilSched.MaxNode(); got != -1 {
		t.Fatalf("nil MaxNode = %d, want -1", got)
	}
	s := &Schedule{Events: []Event{
		{At: 2 * time.Second, Node: 7, Kind: Join},
		{At: time.Second, Node: 19, Kind: Drain},
	}}
	if !s.Active() {
		t.Fatal("schedule with events must be active")
	}
	if got := s.MaxNode(); got != 19 {
		t.Fatalf("MaxNode = %d, want 19", got)
	}
}

func TestScheduleSortedStable(t *testing.T) {
	s := &Schedule{Events: []Event{
		{At: 2 * time.Second, Node: 1, Kind: Drain},
		{At: time.Second, Node: 2, Kind: Join},
		{At: 2 * time.Second, Node: 3, Kind: Leave},
	}}
	got := s.Sorted()
	if got[0].Node != 2 || got[1].Node != 1 || got[2].Node != 3 {
		t.Fatalf("Sorted order = %v", got)
	}
	if s.Events[0].Node != 1 {
		t.Fatal("Sorted must not mutate the schedule")
	}
}

func TestScaleCycle(t *testing.T) {
	s := ScaleCycle(4, 2, time.Second, 3*time.Second, time.Second, 42)
	if len(s.Events) != 6 {
		t.Fatalf("ScaleCycle events = %d, want 6", len(s.Events))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.MaxNode(); got != 5 {
		t.Fatalf("MaxNode = %d, want 5", got)
	}
	var joins, drains, leaves int
	for _, ev := range s.Events {
		switch ev.Kind {
		case Join:
			joins++
			if ev.At != time.Second {
				t.Errorf("join at %v, want 1s", ev.At)
			}
		case Drain:
			drains++
		case Leave:
			leaves++
			if ev.At != 4*time.Second {
				t.Errorf("leave at %v, want 4s", ev.At)
			}
		}
	}
	if joins != 2 || drains != 2 || leaves != 2 {
		t.Fatalf("kinds = %d/%d/%d, want 2/2/2", joins, drains, leaves)
	}
}

func TestKindString(t *testing.T) {
	if Join.String() != "join" || Drain.String() != "drain" || Leave.String() != "leave" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Fatal("unknown kind string")
	}
}
