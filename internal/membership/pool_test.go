package membership

import (
	"reflect"
	"testing"
	"time"

	"finelb/internal/obs"
)

// fakeNodes is a Substrate that records transitions and lets a test set
// loads and veto joins.
type fakeNodes struct {
	load  map[int]int
	veto  map[int]bool
	trail []string
}

func newFakeNodes() *fakeNodes {
	return &fakeNodes{load: map[int]int{}, veto: map[int]bool{}}
}

func (f *fakeNodes) Start(id int) bool { return !f.veto[id] }
func (f *fakeNodes) Changed(kind Kind, id int) {
	f.trail = append(f.trail, kind.String()+":"+string(rune('0'+id)))
}
func (f *fakeNodes) Load(id int) int { return f.load[id] }

// TestPoolJoinAndDrainOrder pins the one membership rule both
// substrates follow: a scale-up joins the lowest id that is neither
// routable nor retired (a fresh id beats a retired one), then the
// lowest retired id; a scale-down drains the highest routable id and
// retires it once idle.
func TestPoolJoinAndDrainOrder(t *testing.T) {
	f := newFakeNodes()
	p := NewPool(3, 6, f, nil)

	// Retire 1 by hand; 3..5 are fresh.
	if !p.Leave(1) {
		t.Fatal("Leave(1) refused")
	}
	// The fresh ids come before the retired one.
	p.scale(2)
	if got, want := p.Members(), []int{0, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after +2 members = %v, want %v", got, want)
	}
	// A vetoed fresh id is skipped; the retired id comes back after it.
	f.veto[5] = true
	p.scale(2)
	if got, want := p.Members(), []int{0, 1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after +2 with 5 vetoed, members = %v, want %v", got, want)
	}

	// Scale-down: highest first; an idle id retires at once, a busy one
	// stays retiring until RetireIdle sees it idle.
	f.load[4] = 2
	f.trail = nil
	p.scale(-2)
	if got, want := p.Members(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after -2 members = %v, want %v", got, want)
	}
	if want := []string{"drain:4", "drain:3", "leave:3"}; !reflect.DeepEqual(f.trail, want) {
		t.Fatalf("scale-down trail %v, want %v", f.trail, want)
	}
	if !p.Retiring(4) || p.Retiring(3) {
		t.Fatalf("retiring: 4=%v 3=%v, want 4 only", p.Retiring(4), p.Retiring(3))
	}
	p.RetireIdle()
	if !p.Retiring(4) {
		t.Fatal("busy id retired")
	}
	f.load[4] = 0
	p.RetireIdle()
	if p.Retiring(4) {
		t.Fatal("idle id still retiring")
	}
	// The only fresh id left is the vetoed 5, so the lowest retired id
	// rejoins.
	p.scale(1)
	if got, want := p.Members(), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after +1 members = %v, want %v", got, want)
	}

	joins, drains, leaves, final, peak := p.Stats()
	if joins != 4 || drains != 3 || leaves != 3 || final != 4 || peak != 5 {
		t.Fatalf("stats joins=%d drains=%d leaves=%d final=%d peak=%d", joins, drains, leaves, final, peak)
	}
}

// TestPoolRules: the last member never drains or leaves, a routable id
// drains before it leaves, ids that never joined cannot leave, and
// repeated transitions change nothing.
func TestPoolRules(t *testing.T) {
	f := newFakeNodes()
	reg := obs.NewRegistry()
	p := NewPool(2, 3, f, obs.NewMembershipMetrics(reg))
	if p.Leave(2) {
		t.Fatal("never-joined id left")
	}
	if !p.Apply(Event{Node: 2, Kind: Join}) || p.Join(2) {
		t.Fatal("join not applied exactly once")
	}
	if p.Join(3) || p.Join(-1) {
		t.Fatal("id outside the pool joined")
	}
	if !p.Leave(2) {
		t.Fatal("Leave(2) refused")
	}
	if want := []string{"join:2", "drain:2", "leave:2"}; !reflect.DeepEqual(f.trail, want) {
		t.Fatalf("trail %v, want %v (drain before leave)", f.trail, want)
	}
	if !p.Drain(1) || p.Drain(0) || p.Leave(0) {
		t.Fatal("the last routable member must neither drain nor leave")
	}
	if !p.Routable(0) || p.Routable(1) || p.Size() != 1 {
		t.Fatalf("members %v", p.Members())
	}
	snap := reg.Snapshot()
	if snap.Value(obs.MetricMembershipJoins) != 1 || snap.Value(obs.MetricMembershipDrains) != 2 ||
		snap.Value(obs.MetricMembershipLeaves) != 1 || snap.Value(obs.MetricMembershipPool) != 1 {
		t.Fatalf("metrics out of step with the pool: %+v", snap)
	}
}

// TestPoolAutoscale: one evaluation samples the routable members' mean
// load and applies the policy's delta.
func TestPoolAutoscale(t *testing.T) {
	f := newFakeNodes()
	p := NewPool(2, 4, f, nil)
	f.load[0], f.load[1] = 5, 5
	as := NewAutoscaler(&AutoscalerConfig{Min: 1, Max: 4, ScaleUpAt: 2, ScaleDownAt: 0.5, Interval: time.Second})
	p.Autoscale(as, time.Second)
	if p.Size() != 3 {
		t.Fatalf("pool %d after an overloaded sample, want 3", p.Size())
	}
}

func TestMaxPoolAndCheck(t *testing.T) {
	s := &Schedule{Events: []Event{{At: 0, Node: 6, Kind: Join}}}
	if got := MaxPool(4, s, &AutoscalerConfig{Min: 1, Max: 9}); got != 9 {
		t.Fatalf("MaxPool = %d, want 9", got)
	}
	if got := MaxPool(4, s, nil); got != 7 {
		t.Fatalf("MaxPool = %d, want 7", got)
	}
	if got := MaxPool(4, nil, nil); got != 4 {
		t.Fatalf("fixed MaxPool = %d, want 4", got)
	}
	if err := Check(4, s, &AutoscalerConfig{Min: 1, Max: 2}); err == nil {
		t.Fatal("autoscaler max below the initial pool accepted")
	}
	if err := Check(4, s, nil); err != nil {
		t.Fatal(err)
	}
}
