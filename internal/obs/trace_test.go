package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestTraceRingWrap(t *testing.T) {
	tr := NewTrace(3)
	for i := 1; i <= 5; i++ {
		tr.Emit(float64(i), "e", "test", int64(i), 0)
	}
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("retained %d events, want 3", len(ev))
	}
	for i, want := range []uint64{3, 4, 5} {
		if ev[i].Seq != want {
			t.Fatalf("events = %+v, want seqs 3,4,5 oldest-first", ev)
		}
	}
	if tr.Total() != 5 {
		t.Fatalf("total = %d, want 5", tr.Total())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped())
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
}

func TestTracePartialFill(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(0.5, "a", "x", 1, 2)
	tr.Emit(0.7, "b", "y", 3, 4)
	ev := tr.Events()
	if len(ev) != 2 || ev[0].Name != "a" || ev[1].Name != "b" {
		t.Fatalf("events = %+v, want a then b", ev)
	}
	if ev[0].Seq != 1 || ev[1].Seq != 2 {
		t.Fatalf("seqs = %d,%d, want 1,2", ev[0].Seq, ev[1].Seq)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Emit(1, "e", "x", 0, 0) // must not panic
	if tr.Events() != nil || tr.Len() != 0 || tr.Total() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace reported retained state")
	}
}

func TestTraceMinimumCapacity(t *testing.T) {
	tr := NewTrace(0)
	tr.Emit(1, "a", "x", 0, 0)
	tr.Emit(2, "b", "x", 0, 0)
	ev := tr.Events()
	if len(ev) != 1 || ev[0].Name != "b" {
		t.Fatalf("capacity-0 trace should clamp to 1 and keep newest, got %+v", ev)
	}
}

func TestTraceConcurrentEmit(t *testing.T) {
	tr := NewTrace(64)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				tr.Emit(0, "e", "w", 0, 0)
			}
		}()
	}
	wg.Wait()
	if tr.Total() != workers*per {
		t.Fatalf("total = %d, want %d", tr.Total(), workers*per)
	}
	ev := tr.Events()
	if len(ev) != 64 {
		t.Fatalf("retained %d, want 64", len(ev))
	}
	// Sequence numbers must be unique even under contention; the ring
	// holds the 64 newest in order.
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("retained events out of order at %d: %d then %d", i, ev[i-1].Seq, ev[i].Seq)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total").Add(7)

	mux := NewMux(reg, true)

	w := httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != 200 {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Value("hits_total") != 7 {
		t.Fatalf("/metrics hits_total = %d, want 7", snap.Value("hits_total"))
	}

	w = httptest.NewRecorder()
	mux.ServeHTTP(w, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if w.Code != 200 {
		t.Fatalf("/debug/pprof/cmdline status = %d with pprof enabled", w.Code)
	}

	// Without the flag, pprof must not be mounted.
	plain := NewMux(reg, false)
	w = httptest.NewRecorder()
	plain.ServeHTTP(w, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if w.Code == 200 {
		t.Fatal("pprof reachable without enablePprof")
	}
}
