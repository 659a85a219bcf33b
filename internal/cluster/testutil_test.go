package cluster

import (
	"os"
	"sync"
	"testing"
	"time"

	"finelb/internal/transport"
)

// waitUntil polls cond every millisecond until it holds, failing the
// test after a bounded deadline. It replaces bare time.Sleep
// synchronization: the test proceeds the moment the condition is
// true instead of hoping a fixed nap was long enough.
func waitUntil(t *testing.T, cond func() bool, desc string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(time.Millisecond)
	}
}

// lookup queries dir for (service, partition), failing the test when
// the lookup fails.
func lookup(t *testing.T, dir ServiceDirectory, service string, partition uint32) []Endpoint {
	t.Helper()
	eps, err := dir.Lookup(service, partition)
	if err != nil {
		t.Fatalf("lookup %s/%d: %v", service, partition, err)
	}
	return eps
}

var (
	memFabricOnce sync.Once
	memFabric     *transport.Mem
)

// testTransport returns the transport the package's tests run over:
// real loopback sockets by default, or one shared in-memory fabric
// when FINELB_TEST_TRANSPORT=mem (the CI race step exercises the
// whole suite over transport.Mem this way). The fabric is shared
// across tests exactly as the OS network stack is — endpoints are
// per-address, so tests stay isolated.
func testTransport(t *testing.T) transport.Transport {
	t.Helper()
	if os.Getenv("FINELB_TEST_TRANSPORT") == "mem" {
		memFabricOnce.Do(func() {
			memFabric = transport.NewMem(transport.MemConfig{Seed: 1})
		})
		return memFabric
	}
	return transport.Net{}
}
