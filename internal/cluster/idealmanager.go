package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"

	"finelb/internal/stats"
	"finelb/internal/transport"
)

// IdealManager emulates the IDEAL policy in the prototype exactly as
// the paper does (§4): a centralized load-index manager keeps every
// server's queue length; a client asks it for the shortest-queue server
// before each access (which increments that queue) and reports back
// after the access completes (which decrements it).
//
// To the cluster the manager is one more service: it runs on a Node
// whose Handler serves managerService, and its clients call it through
// a Caller on the node protocol. An acquire is a request with no
// payload, answered with the assigned server index as a 4-byte
// payload; a release carries the index as its 4-byte payload and is
// answered StatusOK, or StatusAppError when the index is unknown.
type IdealManager struct {
	node *Node

	//lint:guards counts, active, rng, acquires, releases
	mu       sync.Mutex
	counts   []int64
	active   []bool // acquire only assigns active (routable) servers
	rng      *stats.RNG
	acquires int64
	releases int64
}

// managerService is the service name the manager's node serves.
const managerService = "ideal-manager"

// StartIdealManager starts a manager for n servers on a stream
// listener of tr (the default real-socket transport when nil).
func StartIdealManager(tr transport.Transport, n int, seed uint64) (*IdealManager, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: IdealManager with n = %d", n)
	}
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	m := &IdealManager{
		counts: make([]int64, n),
		active: active,
		rng:    stats.NewRNG(seed ^ 0xdeadbeefcafef00d),
	}
	// No contention model, and a private metrics catalog (nil Metrics):
	// manager traffic is bookkeeping, not service accesses of the run.
	node, err := StartNode(NodeConfig{
		Service:   managerService,
		Transport: tr,
		Handler:   HandlerFunc(m.serve),
		SlowProb:  -1,
	})
	if err != nil {
		return nil, err
	}
	m.node = node
	return m, nil
}

// Addr returns the manager's stream address.
func (m *IdealManager) Addr() string { return m.node.AccessAddr() }

// Counts snapshots the per-server assigned counts.
func (m *IdealManager) Counts() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, len(m.counts))
	copy(out, m.counts)
	return out
}

// ManagerStats are the manager's protocol counters.
type ManagerStats struct {
	Acquires int64 // server assignments handed out
	Releases int64 // completions reported back
}

// Stats snapshots the manager's protocol counters (lbmanager's /metrics
// endpoint republishes them).
func (m *IdealManager) Stats() ManagerStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ManagerStats{Acquires: m.acquires, Releases: m.releases}
}

// Close stops the manager and waits for its goroutines.
func (m *IdealManager) Close() error { return m.node.Close() }

// EnsureServers grows the manager's view to hold servers [0, n). New
// slots start inactive — a joining server re-registers through
// SetActive — and an already-large view is untouched, so counts (the
// in-flight work of servers that drained with work outstanding) are
// never reset by churn.
func (m *IdealManager) EnsureServers(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.counts) < n {
		m.counts = append(m.counts, 0)
		m.active = append(m.active, false)
	}
}

// SetActive marks whether acquire may assign server idx. Draining a
// server deactivates it while its count keeps decrementing as clients
// release completed accesses; re-joining reactivates it with whatever
// count it still carries.
func (m *IdealManager) SetActive(idx int, active bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if idx >= 0 && idx < len(m.active) {
		m.active[idx] = active
	}
}

// acquire picks the least-loaded active server (uniform tie-break) and
// increments its count. If every server is inactive — transiently
// possible mid-churn — it falls back to the full set rather than fail
// the access.
func (m *IdealManager) acquire() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	best, ties := -1, 0
	for i := 0; i < len(m.counts); i++ {
		if !m.active[i] {
			continue
		}
		switch {
		case best < 0 || m.counts[i] < m.counts[best]:
			best, ties = i, 1
		case m.counts[i] == m.counts[best]:
			ties++
			if m.rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	if best < 0 {
		best, ties = 0, 1
		for i := 1; i < len(m.counts); i++ {
			switch {
			case m.counts[i] < m.counts[best]:
				best, ties = i, 1
			case m.counts[i] == m.counts[best]:
				ties++
				if m.rng.Intn(ties) == 0 {
					best = i
				}
			}
		}
	}
	m.counts[best]++
	m.acquires++
	return uint32(best)
}

// release decrements a server's count, clamping at zero.
func (m *IdealManager) release(idx uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if int(idx) >= len(m.counts) {
		return false
	}
	if m.counts[idx] > 0 {
		m.counts[idx]--
	}
	m.releases++
	return true
}

// serve is the manager node's Handler: an empty payload acquires, a
// 4-byte index releases.
func (m *IdealManager) serve(req *Request) ([]byte, uint8) {
	switch len(req.Payload) {
	case 0:
		return binary.LittleEndian.AppendUint32(nil, m.acquire()), StatusOK
	case 4:
		if m.release(binary.LittleEndian.Uint32(req.Payload)) {
			return nil, StatusOK
		}
	}
	return nil, StatusAppError
}

// managerClient reaches an IdealManager through a Caller of its own,
// which no mapping-table refresh ever prunes.
type managerClient struct {
	calls *Caller
	ep    Endpoint
}

func newManagerClient(tr transport.Transport, addr string) *managerClient {
	return &managerClient{calls: NewCaller(tr, accessTimeout), ep: Endpoint{AccessAddr: addr}}
}

func (mc *managerClient) acquire() (uint32, error) {
	out, err := mc.calls.callOK(mc.ep, managerService, 0, nil)
	if err != nil {
		return 0, err
	}
	if len(out) != 4 {
		return 0, fmt.Errorf("cluster: manager acquire answered %d payload bytes", len(out))
	}
	return binary.LittleEndian.Uint32(out), nil
}

func (mc *managerClient) release(idx uint32) error {
	if _, err := mc.calls.callOK(mc.ep, managerService, 0, binary.LittleEndian.AppendUint32(nil, idx)); err != nil {
		return fmt.Errorf("cluster: manager release of %d: %w", idx, err)
	}
	return nil
}

func (mc *managerClient) close() { mc.calls.Close() }
