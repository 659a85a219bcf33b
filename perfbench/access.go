package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"finelb/internal/cluster"
	"finelb/internal/transport"
)

// accessCounts accumulates what Client reports per access.
type accessCounts struct {
	polled, answered, discarded, retries int64
	loadSum                              float64
}

func (a *accessCounts) note(info *cluster.AccessInfo, resp *cluster.Response) {
	a.polled += int64(info.Polled)
	a.answered += int64(info.Answered)
	a.discarded += int64(info.Discarded)
	a.retries += int64(info.Retries)
	a.loadSum += float64(resp.Load)
}

func sumCounts(cs []accessCounts) accessCounts {
	var t accessCounts
	for _, c := range cs {
		t.polled += c.polled
		t.answered += c.answered
		t.discarded += c.discarded
		t.retries += c.retries
		t.loadSum += c.loadSum
	}
	return t
}

// netRun is the state of one access_net_d3 run shared by its callers.
type netRun struct {
	out      *outcome
	cl       *cluster.Cluster
	table    map[int]bool
	payload  [callers][8]byte
	seq      [callers]uint64
	lastID   [callers]uint64
	counts   []accessCounts // per caller, swapped per phase
	spans    [callers]*spanLog
	accessID atomic.Uint64
}

// check verifies one reply: status OK, the payload echoed, a response
// id above the caller's previous one, and a serving node in the table.
func (r *netRun) check(i int, server int, resp *cluster.Response) bool {
	switch {
	case resp.Status != cluster.StatusOK:
		r.out.problem("caller %d: status %d", i, resp.Status)
	case !bytes.Equal(resp.Payload, r.payload[i][:]):
		r.out.problem("caller %d: payload %x echoed as %x", i, r.payload[i][:], resp.Payload)
	case resp.ID <= r.lastID[i]:
		r.out.problem("caller %d: response id %d after %d", i, resp.ID, r.lastID[i])
	case !r.table[server]:
		r.out.problem("caller %d: served by node %d outside the table", i, server)
	default:
		r.lastID[i] = resp.ID
		return true
	}
	return false
}

func (r *netRun) nextPayload(i int) []byte {
	r.seq[i]++
	binary.LittleEndian.PutUint64(r.payload[i][:], r.seq[i]+uint64(i)<<56)
	return r.payload[i][:]
}

// access is one Client.Access, the production path.
func (r *netRun) access(i int) bool {
	info, err := r.cl.Clients[i].Access(0, r.nextPayload(i))
	if err != nil {
		return false
	}
	if !r.check(i, info.Server, info.Resp) {
		return false
	}
	r.counts[i].note(info, info.Resp)
	return true
}

// tracedAccess makes the same access from its three public steps,
// recording a span around each. Its counters are not kept: they come
// from the untraced half.
func (r *netRun) tracedAccess(i int) bool {
	c := r.cl.Clients[i]
	id := r.accessID.Add(1)
	payload := r.nextPayload(i)
	t0 := time.Now()
	eps := c.Endpoints()
	t1 := time.Now()
	var info cluster.AccessInfo
	ep, ok, err := c.PollRound(eps, &info)
	t2 := time.Now()
	if err != nil || !ok {
		return false
	}
	got, err := c.AccessNode(ep.NodeID, 0, payload)
	t3 := time.Now()
	if err != nil {
		return false
	}
	log := r.spans[i]
	log.add(id, spanAccess, spanNone, t0, t3)
	log.add(id, spanLookup, spanAccess, t0, t1)
	log.add(id, spanPoll, spanAccess, t1, t2)
	log.add(id, spanDispatch, spanAccess, t2, t3)
	return r.check(i, got.Server, got.Resp)
}

// runAccessNet is access_net_d3: 16 nodes and 2 clients on loopback
// sockets, each caller looping on Client.Access with poll size 3.
func runAccessNet(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	base, err := takeBaseline(true)
	if err != nil {
		return nil, err
	}
	r := &netRun{out: out}
	first := func(cl *cluster.Cluster) error {
		r.cl, r.table = cl, nodeSet(cl)
		r.lastID = [callers]uint64{}
		r.counts = make([]accessCounts, callers)
		info, err := cl.Clients[0].Access(0, r.nextPayload(0))
		if err != nil {
			return err
		}
		r.check(0, info.Server, info.Resp)
		return nil
	}
	var start nodeCounters
	boot := func() (*cluster.Cluster, error) {
		cl, err := startCluster(transport.Net{}, cfg.seed)
		if err == nil {
			start = readNodes(cl)
		}
		return cl, err
	}
	cl, setups, err := setUp(base, boot, first, (*cluster.Cluster).Close)
	if err != nil {
		return nil, err
	}
	out.setups = setups
	out.attempted = 1 // the set-up access
	out.run(warmup, r.access)

	r.counts = make([]accessCounts, callers)
	if !cfg.trace {
		p := out.run(cfg.seconds, r.access)
		endToEnd(out.e2e, p)
		out.notes = append(out.notes, phaseNotes("measured", p)...)
	} else {
		n0, late0 := readNodes(cl), lateAnswers(cl)
		plain := out.run(cfg.seconds/2, r.access)
		n1, late1 := readNodes(cl), lateAnswers(cl)
		counts := sumCounts(r.counts)

		epoch := time.Now()
		for i := range r.spans {
			r.spans[i] = newSpanLog(epoch)
		}
		traced := out.run(cfg.seconds/2, r.tracedAccess)
		out.spans = mergeSpans(r.spans[:]...)

		m := out.layer
		accessLayer(m, out, out.spans, traced)
		m.set("cluster.polls_per_access", ratio(float64(counts.polled), float64(plain.ok)))
		m.set("cluster.poll_answered_ratio", ratio(float64(counts.answered), float64(counts.polled)))
		m.set("cluster.poll_discarded", float64(counts.discarded))
		m.set("cluster.retries", float64(counts.retries))
		m.set("cluster.late_answers", float64(late1-late0))
		nodeDelta(n0, n1, plain.ok, counts.loadSum, m)
		procMetrics(plain.proc, plain.ok, m)
		m.set("latency_p99_us", median(plain.figures().p99))
		m.set("bench.trace_overhead", ratio(traced.throughput(), plain.throughput()))
		if err := echoMetrics(transport.Net{}, m); err != nil {
			out.problem("transport echo: %v", err)
		}
		out.notes = append(append(out.notes, phaseNotes("untraced", plain)...), phaseNotes("traced", traced)...)
	}

	checkServed(out, start, readNodes(cl))
	cl.Close()
	if err := base.checkTeardown(); err != nil {
		out.problem("%v", err)
	}
	return out, nil
}

// accessLayer fills the cluster.* span metrics of a traced phase and
// notes how much of the traced access the three steps explain.
func accessLayer(m metrics, out *outcome, spans []span, traced phase) {
	st := collectSpanStats(spans)
	poll := summarize(st.dur[spanPoll])
	disp := summarize(st.dur[spanDispatch])
	m.set("cluster.lookup_us_p50", summarize(st.dur[spanLookup]).pct(50))
	m.set("cluster.poll_us_p50", poll.pct(50))
	m.set("cluster.poll_us_p99", poll.pct(99))
	m.set("cluster.dispatch_us_p50", disp.pct(50))
	m.set("cluster.dispatch_us_p99", disp.pct(99))
	m.set("cluster.poll_self_share", ratio(summarize(st.self[spanPoll]).sum, summarize(st.dur[spanAccess]).sum))
	sum := spanMedians(st, spanLookup, spanPoll, spanDispatch)
	accessP50 := summarize(st.dur[spanAccess]).pct(50)
	out.notes = append(out.notes, fmt.Sprintf(
		"span medians: lookup+poll+dispatch = %.2f us; traced access p50 = %.2f us (caller loop p50 %.2f us); unexplained %.2f us",
		sum, accessP50, summarize(traced.latencies()).pct(50), accessP50-sum))
}
