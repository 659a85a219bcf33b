package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
)

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
