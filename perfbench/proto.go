package main

import (
	"fmt"
	"runtime"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/core"
	"finelb/internal/transport"
)

const (
	// nodes is the prototype cluster size of both prototype workloads.
	nodes = 16
	// pollSize is the paper's Table 2 / Figure 6 operating point.
	pollSize = 3
	// setupReps is how many times a run boots its environment; setup_s
	// is the median.
	setupReps = 31
	// warmup runs the loop untimed after set-up, so connection pools and
	// poll agents to every node exist before measuring.
	warmup = time.Second
)

// startCluster boots the prototype cluster every prototype workload
// runs on: zero service time and the contention model off, so the
// access path is the whole cost.
func startCluster(tr transport.Transport, seed uint64) (*cluster.Cluster, error) {
	return cluster.StartCluster(cluster.ExperimentConfig{
		Servers:   nodes,
		Clients:   callers,
		Policy:    core.NewPoll(pollSize),
		Transport: tr,
		SlowProb:  -1,
		Seed:      seed,
	})
}

// setUp boots an environment setupReps times, timing each boot up to
// its first successful access. Every boot but the last is closed again
// and must tear down to the baseline. Each boot starts from a collected
// heap, as a fresh process would, so the previous boot's garbage does
// not decide whether a collection lands inside the timed boot.
func setUp[E any](base baseline, boot func() (E, error), first func(E) error, closeEnv func(E)) (E, []float64, error) {
	var setups []float64
	for i := 1; ; i++ {
		runtime.GC()
		t0 := time.Now()
		e, err := boot()
		if err != nil {
			return e, nil, fmt.Errorf("boot: %w", err)
		}
		if err := first(e); err != nil {
			closeEnv(e)
			return e, nil, fmt.Errorf("first access: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == setupReps {
			return e, setups, nil
		}
		closeEnv(e)
		if err := base.checkTeardown(); err != nil {
			return e, nil, fmt.Errorf("after set-up %d: %w", i, err)
		}
	}
}

// nodeCounters snapshots every node's counters.
type nodeCounters struct {
	served            []int64
	inquiries, overld int64
}

func readNodes(cl *cluster.Cluster) nodeCounters {
	var c nodeCounters
	for _, n := range cl.Nodes {
		st := n.Stats()
		c.served = append(c.served, st.Served)
		c.inquiries += st.Inquiries
		c.overld += st.Overloads
	}
	return c
}

// nodeDelta fills the node.* metrics for the window between two
// snapshots in which ops accesses completed.
func nodeDelta(a, b nodeCounters, ops int64, loadSum float64, m metrics) {
	var total int64
	per := make([]float64, len(a.served))
	for i := range a.served {
		d := b.served[i] - a.served[i]
		per[i] = float64(d)
		total += d
	}
	m.set("node.served", float64(total))
	m.set("node.inquiries_per_access", ratio(float64(b.inquiries-a.inquiries), float64(total)))
	m.set("node.overloads", float64(b.overld-a.overld))
	m.set("node.served_cv", cv(per))
	m.set("node.load_at_reply_mean", ratio(loadSum, float64(ops)))
}

// checkServed is the conservation check: the nodes served exactly the
// accesses the benchmark saw complete.
func checkServed(out *outcome, a, b nodeCounters) {
	var total int64
	for i := range a.served {
		total += b.served[i] - a.served[i]
	}
	if completed := out.attempted - out.failed; total != completed {
		out.problem("nodes served %d accesses, callers completed %d", total, completed)
	}
}

func lateAnswers(cl *cluster.Cluster) int64 {
	var n int64
	for _, c := range cl.Clients {
		n += c.LateAnswers()
	}
	return n
}

// nodeSet is the mapping table the run started with, by node id.
func nodeSet(cl *cluster.Cluster) map[int]bool {
	set := make(map[int]bool)
	for _, ep := range cl.Clients[0].Endpoints() {
		set[ep.NodeID] = true
	}
	return set
}

func spanMedians(st spanStats, names ...string) float64 {
	var sum float64
	for _, n := range names {
		sum += summarize(st.dur[n]).pct(50)
	}
	return sum
}
