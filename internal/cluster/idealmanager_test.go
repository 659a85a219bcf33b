package cluster

import (
	"slices"
	"sync"
	"testing"

	"finelb/internal/obs"
)

func startTestManager(t *testing.T, n int) (*IdealManager, *managerClient) {
	t.Helper()
	m, err := StartIdealManager(testTransport(t), n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	mc := newManagerClient(testTransport(t), m.Addr())
	t.Cleanup(mc.close)
	return m, mc
}

func TestIdealManagerRejectsBadSize(t *testing.T) {
	if _, err := StartIdealManager(testTransport(t), 0); err == nil {
		t.Fatal("manager for 0 servers accepted")
	}
	if _, err := StartIdealManager(testTransport(t), -3); err == nil {
		t.Fatal("manager for -3 servers accepted")
	}
}

func TestIdealManagerReleaseClamps(t *testing.T) {
	m, mc := startTestManager(t, 2)
	// Release without acquire: count stays at zero.
	if err := mc.release(0); err != nil {
		t.Fatal(err)
	}
	if counts := m.Counts(); counts[0] != 0 {
		t.Fatalf("count went negative: %v", counts)
	}
	// Release of an out-of-range index errors.
	if err := mc.release(99); err == nil {
		t.Fatal("bad index accepted")
	}
}

func TestIdealManagerAcquirePicksShortest(t *testing.T) {
	m, mc := startTestManager(t, 3)
	// Idle servers: least count first, ties to the lowest id, so the
	// first round visits 0, 1, 2 in order and the fourth acquire, with
	// every count at 1, goes back to server 0.
	for i, want := range []uint32{0, 1, 2, 0} {
		idx, err := mc.acquire()
		if err != nil {
			t.Fatal(err)
		}
		if idx != want {
			t.Fatalf("acquire %d picked server %d, want %d (counts %v)", i, idx, want, m.Counts())
		}
	}
	if got, want := m.Counts(), []int64{2, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("counts after 4 acquires: %v, want %v", got, want)
	}
}

func TestIdealManagerAcquireAvoidsLoadedServer(t *testing.T) {
	m, mc := startTestManager(t, 2)
	// Two acquires spread across both servers: counts [1,1].
	for i := 0; i < 2; i++ {
		if _, err := mc.acquire(); err != nil {
			t.Fatal(err)
		}
	}
	// Free server 0; the next acquire must pick it, not server 1.
	if err := mc.release(0); err != nil {
		t.Fatal(err)
	}
	idx, err := mc.acquire()
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("acquire picked server %d, want idle server 0 (counts %v)", idx, m.Counts())
	}
}

func TestIdealManagerConcurrentClients(t *testing.T) {
	m, _ := startTestManager(t, 4)
	const clients, rounds = 4, 25
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mc := newManagerClient(testTransport(t), m.Addr())
			defer mc.close()
			for j := 0; j < rounds; j++ {
				idx, err := mc.acquire()
				if err != nil {
					t.Error(err)
					return
				}
				if err := mc.release(idx); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every acquire was released: all queues must be drained.
	for i, v := range m.Counts() {
		if v != 0 {
			t.Fatalf("server %d count %d after full drain", i, v)
		}
	}
	snap := m.Registry().Snapshot()
	acq, rel := snap.Value(obs.MetricManagerAcquires), snap.Value(obs.MetricManagerReleases)
	if acq != clients*rounds || rel != clients*rounds {
		t.Fatalf("acquires %d, releases %d; want %d each", acq, rel, clients*rounds)
	}
	if out := snap.Value(obs.MetricManagerOutstanding); out != 0 {
		t.Fatalf("outstanding %d after full drain", out)
	}
}

func TestIdealManagerCloseIsIdempotent(t *testing.T) {
	m, err := StartIdealManager(testTransport(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// A client against a closed manager fails rather than hanging.
	mc := newManagerClient(testTransport(t), m.Addr())
	defer mc.close()
	if _, err := mc.acquire(); err == nil {
		t.Fatal("acquire against closed manager succeeded")
	}
}
