package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"finelb/internal/cluster"
	"finelb/internal/core"
	"finelb/internal/transport"
)

// TestAccessAllocCeiling bounds what one bodyless /access request
// allocates end to end through Gateway.ServeHTTP on the mem fabric:
// request routing, admission, the backend's poll round and dispatch,
// and the JSON reply. It drives one polled and one sticky request per
// iteration. Whole-process malloc counts include the fabric's node
// goroutines and the response recorder, so the ceiling carries a
// margin over the measured value. Reading a bodyless request's body or
// parsing an empty query would add three allocations per request.
func TestAccessAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	const ceiling = 34 // allocations per polled+sticky request pair; measured 30
	cl, err := cluster.StartCluster(cluster.ExperimentConfig{
		Servers:   3,
		Clients:   1,
		Policy:    core.NewPoll(2),
		Transport: transport.NewMem(transport.MemConfig{Seed: 1}),
		SlowProb:  -1,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	gw, err := New(Config{
		Backends: cl.Clients,
		Tenants: []TenantConfig{
			{Name: "web"},
			{Name: "app", Sticky: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	// The requests are built once: the ceiling covers serving them, not
	// httptest's request parser.
	polled := httptest.NewRequest(http.MethodGet, "/access", nil)
	polled.Header.Set("X-Tenant", "web")
	sticky := httptest.NewRequest(http.MethodGet, "/access", nil)
	sticky.Header.Set("X-Tenant", "app")
	sticky.Header.Set("X-Session", "s1")
	serve := func(req *http.Request) {
		rec := httptest.NewRecorder()
		gw.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s request: status %d: %s", req.Header.Get("X-Tenant"), rec.Code, rec.Body)
		}
	}
	pair := func() {
		serve(polled)
		serve(sticky)
	}
	for i := 0; i < 20; i++ {
		pair() // warm connections, the session pin and every pool
	}
	allocs := testing.AllocsPerRun(200, pair)
	if allocs > ceiling {
		t.Errorf("a polled+sticky request pair allocates %.1f times; want at most %d", allocs, ceiling)
	}
}
