// elastic.go is the prototype half of the elastic-membership seam
// (internal/membership): real nodes joining, draining, and leaving a
// running cluster. The shared membership.Pool decides every transition
// — the same pool and rules the simulator uses — and clusterNodes
// carries them out: Join starts a fresh Node (or re-publishes a drained
// one) and re-registers it with the Ideal manager; Drain withdraws a
// node from the directory and deactivates it at the manager while it
// keeps serving its queue; Leave is bookkeeping only (the process stays
// up until teardown so residual work always completes — killing a node
// mid-queue is what faults.Crash is for).

package cluster

import (
	"time"

	"finelb/internal/membership"
)

// clusterNodes is the prototype's membership.Substrate. Its methods run
// under churnMu, from inside the pool's decisions.
type clusterNodes struct{ cl *Cluster }

// Start starts node id from the cluster's template, or re-publishes it
// when it has run before. A node that fails to start vetoes the join.
func (s clusterNodes) Start(id int) bool {
	cl := s.cl
	for len(cl.Nodes) <= id {
		cl.Nodes = append(cl.Nodes, nil)
	}
	if n := cl.Nodes[id]; n != nil {
		n.Rejoin()
		return true
	}
	n, err := StartNode(cl.newNode(id))
	if err != nil {
		return false
	}
	cl.Nodes[id] = n
	return true
}

// Changed tells the Ideal manager (and, on drain, the node) about a
// transition.
func (s clusterNodes) Changed(kind membership.Kind, id int) {
	cl := s.cl
	switch kind {
	case membership.Join:
		if cl.Manager != nil {
			cl.Manager.EnsureServers(id + 1)
			cl.Manager.SetActive(id, true)
		}
	case membership.Drain:
		cl.Nodes[id].Drain()
		if cl.Manager != nil {
			cl.Manager.SetActive(id, false)
		}
	}
}

// Load returns node id's load index.
func (s clusterNodes) Load(id int) int { return s.cl.Nodes[id].LoadIndex() }

// churn runs one pool decision under churnMu and returns its result.
func (cl *Cluster) churn(decide func(*membership.Pool) bool) bool {
	cl.churnMu.Lock()
	defer cl.churnMu.Unlock()
	return decide(cl.members)
}

// Pool returns the current routable pool size.
func (cl *Cluster) Pool() int {
	cl.churnMu.Lock()
	defer cl.churnMu.Unlock()
	return cl.members.Size()
}

// ChurnStats snapshots the cluster's membership counters: pool
// transitions applied, the routable pool at the end, and its peak.
func (cl *Cluster) ChurnStats() (joins, drains, leaves int64, finalPool, peakPool int) {
	cl.churnMu.Lock()
	defer cl.churnMu.Unlock()
	return cl.members.Stats()
}

// Join makes node id routable: an id the cluster has never run gets a
// fresh Node, a drained or retired one re-publishes with whatever queue
// it still holds. Returns whether the pool changed.
func (cl *Cluster) Join(id int) bool {
	return cl.churn(func(p *membership.Pool) bool { return p.Join(id) })
}

// Drain withdraws node id from routing while it keeps serving. The last
// routable node never drains. Returns whether the pool changed.
func (cl *Cluster) Drain(id int) bool {
	return cl.churn(func(p *membership.Pool) bool { return p.Drain(id) })
}

// Leave retires node id (draining it first when still routable).
// Returns whether anything changed.
func (cl *Cluster) Leave(id int) bool {
	return cl.churn(func(p *membership.Pool) bool { return p.Leave(id) })
}

// Autoscale runs one autoscaler evaluation at elapsed run time now
// (already unscaled back to spec time by the caller): retire idle
// retiring nodes, then let the pool sample the routable load and apply
// the policy's delta.
func (cl *Cluster) Autoscale(as *membership.Autoscaler, now time.Duration) {
	cl.churn(func(p *membership.Pool) bool {
		// The prototype learns of idleness only by sampling.
		p.RetireIdle()
		p.Autoscale(as, now)
		return true
	})
}
