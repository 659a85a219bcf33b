package cluster

import (
	"sort"
	"sync"
	"time"
)

// Endpoint describes one published service instance: which node offers
// which service partitions, and where its access point and load-index
// server listen.
type Endpoint struct {
	NodeID     int
	Service    string
	Partitions []uint32
	AccessAddr string // TCP service access point
	LoadAddr   string // UDP load-index server
}

// HasPartition reports whether the endpoint hosts the given partition.
// An endpoint with no explicit partitions hosts every partition
// (an unpartitioned, fully replicated service).
func (e Endpoint) HasPartition(p uint32) bool {
	if len(e.Partitions) == 0 {
		return true
	}
	for _, q := range e.Partitions {
		if q == p {
			return true
		}
	}
	return false
}

// ServiceDirectory is what nodes and clients need of the service
// availability subsystem (§3.1): nodes publish and withdraw their
// endpoints, clients look up the live ones. The in-process Directory,
// the RemoteDirectory stub of a DirServer, and a FixedDirectory all
// satisfy it.
//
// Publish and Withdraw report nothing: directory entries are soft
// state, so a lost publish is repaired by the next heartbeat and a lost
// withdraw by the entry's expiry.
type ServiceDirectory interface {
	Publish(ep Endpoint)
	Withdraw(nodeID int, service string)
	Lookup(service string, partition uint32) ([]Endpoint, error)
}

// FixedDirectory is a fixed mapping table: every lookup returns all of
// its endpoints, and publishes and withdrawals are ignored. The
// standalone CLI tools use one when run from a nodes file instead of a
// directory server; a client on a FixedDirectory runs no refresh loop.
type FixedDirectory []Endpoint

// Publish is a no-op: the list is fixed.
func (FixedDirectory) Publish(Endpoint) {}

// Withdraw is a no-op: the list is fixed.
func (FixedDirectory) Withdraw(int, string) {}

// Lookup returns a copy of the whole list.
func (f FixedDirectory) Lookup(string, uint32) ([]Endpoint, error) {
	return append([]Endpoint(nil), f...), nil
}

// Directory is the service availability subsystem (§3.1): a well-known
// publish/subscribe channel holding soft state. Each server node
// repeatedly publishes its service type, data partitions, and access
// interface; published information expires unless refreshed, so node
// failures remove their entries without explicit deregistration.
//
// Directory is safe for concurrent use.
type Directory struct {
	ttl time.Duration
	now func() time.Time

	mu      sync.Mutex
	entries map[dirKey]dirEntry
}

type dirKey struct {
	nodeID  int
	service string
}

type dirEntry struct {
	ep      Endpoint
	expires time.Time
}

// DefaultTTL is the soft-state lifetime of a published entry. Nodes
// republish at a fraction of this.
const DefaultTTL = 2 * time.Second

// NewDirectory returns a directory whose entries live for ttl after
// each publish (DefaultTTL when ttl == 0).
func NewDirectory(ttl time.Duration) *Directory {
	if ttl == 0 {
		ttl = DefaultTTL
	}
	return &Directory{
		ttl:     ttl,
		now:     time.Now,
		entries: make(map[dirKey]dirEntry),
	}
}

// setClock injects a fake clock for tests.
func (d *Directory) setClock(now func() time.Time) { d.now = now }

// Publish records (or refreshes) an endpoint. The entry stays alive for
// one TTL.
func (d *Directory) Publish(ep Endpoint) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.entries[dirKey{ep.NodeID, ep.Service}] = dirEntry{
		ep:      ep,
		expires: d.now().Add(d.ttl),
	}
}

// Withdraw removes a node's entry for a service immediately, without
// waiting for soft-state expiry. A draining node withdraws itself so
// clients stop routing to it at their next refresh instead of one TTL
// later; publishing again re-registers it.
func (d *Directory) Withdraw(nodeID int, service string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.entries, dirKey{nodeID, service})
}

// Lookup returns the live endpoints offering the service and partition,
// sorted by node id for stable ordering. Expired entries are pruned.
// The error is always nil; it is there to satisfy ServiceDirectory.
func (d *Directory) Lookup(service string, partition uint32) ([]Endpoint, error) {
	var out []Endpoint
	now := d.now()
	d.mu.Lock()
	for k, e := range d.entries {
		if now.After(e.expires) {
			delete(d.entries, k)
			continue
		}
		if e.ep.Service == service && e.ep.HasPartition(partition) {
			out = append(out, e.ep)
		}
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out, nil
}

// Services returns the names of all live services, sorted.
func (d *Directory) Services() []string {
	now := d.now()
	d.mu.Lock()
	seen := make(map[string]bool)
	for k, e := range d.entries {
		if now.After(e.expires) {
			delete(d.entries, k)
			continue
		}
		seen[e.ep.Service] = true
	}
	d.mu.Unlock()
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of live entries.
func (d *Directory) Len() int {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for k, e := range d.entries {
		if now.After(e.expires) {
			delete(d.entries, k)
			continue
		}
		n++
	}
	return n
}
