package cluster

import (
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/stats"
	"finelb/internal/transport"
)

// deafTo loses every load inquiry a client sends to node server (-1
// for every node): a Loss 1 link rule. The nodes stay alive on the
// service path, so a client built with it finds them silent only on
// the poll path.
func deafTo(server int) *faults.Schedule {
	return &faults.Schedule{Links: []faults.LinkRule{{Client: -1, Server: server, Loss: 1}}}
}

// deafCluster boots n healthy nodes for clients built with deafTo(-1).
func deafCluster(t *testing.T, n int) *Directory {
	t.Helper()
	d := NewDirectory(time.Minute)
	for i := 0; i < n; i++ {
		node, err := StartNode(NodeConfig{
			ID: i, Service: "svc", Directory: d, Seed: uint64(i),
			SlowProb:  -1,
			Transport: testTransport(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
	}
	return d
}

func TestClientExposesLateAnswers(t *testing.T) {
	// End-to-end form of the late-answer counter: a PollDiscard access
	// abandons a slow node's answer at the threshold in every round (the
	// first and its faults.DefaultPollRetries retries), and when those
	// answers eventually land the client's aggregate counter sees them.
	n := startTestNode(t, NodeConfig{
		ID: 0, Service: "svc", Workers: 2, // the access must not queue behind the long job
		SlowProb: 1, SlowDist: stats.Deterministic{Value: 0.4},
	})
	d := NewDirectory(time.Minute)
	d.Publish(n.Endpoint())
	_, r, w := dialNode(t, n)
	if err := WriteRequest(w, &Request{ID: 1, Service: "svc", ServiceUs: 900000}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return n.LoadIndex() == 1 }, "the node to become busy")

	c, err := NewClient(ClientConfig{
		Directory: d, Service: "svc",
		Policy:    core.NewPollDiscard(1, 30*time.Millisecond),
		Transport: testTransport(t),
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	info, err := c.Access(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 1 + faults.DefaultPollRetries
	if info.Discarded != rounds {
		t.Fatalf("discarded %d, want %d", info.Discarded, rounds)
	}
	if c.LateAnswers() != 0 {
		t.Fatal("late answer counted before it arrived")
	}
	waitUntil(t, func() bool { return c.LateAnswers() == int64(rounds) }, "the slow answers to arrive and be counted late")
	if _, err := ReadResponse(r); err != nil {
		t.Fatal(err)
	}
}

func TestPollSizeClampedToEndpoints(t *testing.T) {
	d, _ := testCluster(t, 2, false)
	c := newTestClient(t, d, core.NewPoll(5), "")
	info, err := c.Access(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Polled != 2 {
		t.Fatalf("poll size 5 against 2 endpoints sent %d inquiries, want 2", info.Polled)
	}
	if info.Answered != 2 || info.Discarded != 0 {
		t.Fatalf("answered %d discarded %d", info.Answered, info.Discarded)
	}
}

func TestPollTimeoutCountsDiscards(t *testing.T) {
	d := deafCluster(t, 2)
	c, err := NewClient(ClientConfig{
		Directory: d, Service: "svc",
		Policy:    core.NewPollDiscard(2, 40*time.Millisecond),
		Faults:    deafTo(-1),
		Transport: testTransport(t),
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	info, err := c.Access(100, nil)
	if err != nil {
		t.Fatal(err) // random fallback must still complete the access
	}
	// Every round (the first and its faults.DefaultPollRetries retries)
	// discards both inquiries at the deadline.
	rounds := 1 + faults.DefaultPollRetries
	if info.Polled != 2*rounds || info.Answered != 0 || info.Discarded != 2*rounds {
		t.Fatalf("polled %d answered %d discarded %d, want %d/0/%d",
			info.Polled, info.Answered, info.Discarded, 2*rounds, 2*rounds)
	}
	if info.PollTime < time.Duration(rounds)*40*time.Millisecond {
		t.Fatalf("%d rounds returned before their discard deadlines: %v", rounds, info.PollTime)
	}
	if info.PollTime > 500*time.Millisecond {
		t.Fatalf("poll ran far past the discard deadline: %v", info.PollTime)
	}
}

func TestPollRetryAfterDryRound(t *testing.T) {
	d := deafCluster(t, 2)
	c, err := NewClient(ClientConfig{
		Directory: d, Service: "svc",
		Policy:          core.NewPollDiscard(2, 30*time.Millisecond),
		QuarantineAfter: -1, // keep both rounds polling both servers
		Faults:          deafTo(-1),
		Transport:       testTransport(t),
		Seed:            6,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	info, err := c.Access(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	// faults.DefaultPollRetries is 1: a dry first round is retried once,
	// and each round gets a fresh full deadline (the second round must
	// not inherit the first round's fired timer).
	if info.Retries != faults.DefaultPollRetries {
		t.Fatalf("retries %d, want %d", info.Retries, faults.DefaultPollRetries)
	}
	if info.Polled != 4 || info.Discarded != 4 {
		t.Fatalf("polled %d discarded %d, want 4/4 across two rounds", info.Polled, info.Discarded)
	}
	if info.PollTime < 60*time.Millisecond {
		t.Fatalf("two 30ms rounds finished in %v; retry reused a fired timer?", info.PollTime)
	}
}

func TestQuarantineAfterConsecutiveTimeouts(t *testing.T) {
	// Node 0 never answers inquiries (its link loses them all); node 1
	// is healthy. After QuarantineAfter consecutive silences, node 0
	// must drop out of the poll set entirely.
	dir := NewDirectory(time.Minute)
	deaf, err := StartNode(NodeConfig{
		ID: 0, Service: "svc", Directory: dir, SlowProb: -1,
		Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { deaf.Close() })
	alive, err := StartNode(NodeConfig{
		ID: 1, Service: "svc", Directory: dir, SlowProb: -1,
		Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { alive.Close() })

	c, err := NewClient(ClientConfig{
		Directory: dir, Service: "svc",
		Policy:          core.NewPollDiscard(2, 30*time.Millisecond),
		QuarantineAfter: 2,
		QuarantineFor:   time.Minute,
		Faults:          deafTo(0),
		Transport:       testTransport(t),
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Two accesses poll both servers and collect node 0's two strikes.
	for i := 0; i < 2; i++ {
		if _, err := c.Access(100, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Node 0 is now quarantined: polls go only to node 1, instantly.
	for i := 0; i < 5; i++ {
		info, err := c.Access(100, nil)
		if err != nil {
			t.Fatal(err)
		}
		if info.Polled != 1 || info.Server != 1 {
			t.Fatalf("access %d: polled %d server %d, want the quarantine to pin node 1",
				i, info.Polled, info.Server)
		}
		if info.Discarded != 0 {
			t.Fatalf("access %d still discarding: %+v", i, info)
		}
	}
}

func TestNodePauseResume(t *testing.T) {
	dir := NewDirectory(200 * time.Millisecond)
	node, err := StartNode(NodeConfig{
		ID: 0, Service: "svc", Directory: dir,
		SlowProb: -1, PublishInterval: 50 * time.Millisecond,
		Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })

	c, err := NewClient(ClientConfig{
		Directory: dir, Service: "svc", Policy: core.NewRandom(),
		RefreshInterval: 20 * time.Millisecond, Seed: 8,
		Transport: testTransport(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if _, err := c.Access(100, nil); err != nil {
		t.Fatalf("healthy access failed: %v", err)
	}

	node.Pause()
	if !node.Paused() {
		t.Fatal("Paused() false after Pause")
	}
	// Heartbeats stop: the soft-state entry must expire at the TTL.
	waitUntil(t, func() bool { return dir.Len() == 0 }, "paused node's directory entry to expire")

	// An access accepted while paused stays queued, not lost.
	type result struct {
		info *AccessInfo
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		// Static-endpoint client so the expired directory doesn't block
		// the access from reaching the paused node's open socket.
		pc, err := NewClient(ClientConfig{
			Directory: FixedDirectory{node.Endpoint()},
			Service:   "svc", Policy: core.NewRandom(),
			Transport: node.Transport(),
			Seed:      9,
		})
		if err != nil {
			resCh <- result{nil, err}
			return
		}
		defer pc.Close()
		info, err := pc.Access(100, nil)
		resCh <- result{info, err}
	}()

	select {
	case r := <-resCh:
		t.Fatalf("access completed against a paused node: %+v %v", r.info, r.err)
	case <-time.After(150 * time.Millisecond):
		// Still queued — the pause is holding it. Good.
	}

	node.Resume()
	if node.Paused() {
		t.Fatal("Paused() true after Resume")
	}
	select {
	case r := <-resCh:
		if r.err != nil {
			t.Fatalf("queued access failed after resume: %v", r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued access never completed after resume")
	}
	// Resume re-publishes immediately, ahead of the publish period.
	if dir.Len() == 0 {
		t.Fatal("resumed node did not re-register")
	}
}

// TestStaleAnswerOnReusedRoundSocket delivers the answers to an
// earlier round's inquiries to the client's one socket while the next
// round waits on a deaf node. The waiting round must keep them out of
// its slots, and each counts late as it arrives: here a stale seq is
// the deaf node's discarded inquiry (its link lost it, but it still
// took a seq), and letting it fill that node's new slot would report
// two answers instead of one.
func TestStaleAnswerOnReusedRoundSocket(t *testing.T) {
	tr := testTransport(t)
	alive := startTestNode(t, NodeConfig{ID: 0, Service: "svc", SlowProb: -1, Transport: tr})
	deaf := startTestNode(t, NodeConfig{ID: 1, Service: "svc", SlowProb: -1, Transport: tr})
	c, err := NewClient(ClientConfig{
		Directory:       FixedDirectory{alive.Endpoint(), deaf.Endpoint()},
		Service:         "svc",
		Policy:          core.NewPollDiscard(2, 200*time.Millisecond),
		QuarantineAfter: -1,
		Faults:          deafTo(1),
		Transport:       tr,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	first := &AccessInfo{}
	if _, ok, err := c.PollRound(c.Endpoints(), first); err != nil || !ok || first.Answered != 1 {
		t.Fatalf("first round: ok=%v err=%v answered=%d", ok, err, first.Answered)
	}
	stale := c.seq.Load() // the first round's seqs are 1..stale

	type result struct {
		ep   Endpoint
		ok   bool
		err  error
		info *AccessInfo
	}
	done := make(chan result, 1)
	go func() {
		info := &AccessInfo{}
		ep, ok, err := c.PollRound(c.Endpoints(), info)
		done <- result{ep, ok, err, info}
	}()
	waitUntil(t, func() bool { return inflight(c) == 1 }, "the second round to wait on the deaf node")

	src, err := tr.ListenPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for seq := uint32(1); seq <= stale; seq++ {
		if _, err := src.WriteTo(EncodeLoad(nil, seq, 0), c.conn.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, func() bool { return c.LateAnswers() == int64(stale) }, "the stale answers to be counted late")

	res := <-done
	if res.err != nil || !res.ok {
		t.Fatalf("second round: ok=%v err=%v", res.ok, res.err)
	}
	if res.info.Answered != 1 || res.info.Discarded != 1 || res.ep.NodeID != alive.cfg.ID {
		t.Fatalf("stale answer leaked into the round: answered %d discarded %d picked node %d",
			res.info.Answered, res.info.Discarded, res.ep.NodeID)
	}
	if n := inflight(c); n != 0 {
		t.Fatalf("%d inquiries still registered after the round", n)
	}
	if got := c.LateAnswers(); got != int64(stale) {
		t.Fatalf("LateAnswers %d, want %d", got, stale)
	}
}

// inflight counts the client's registered inquiries.
func inflight(c *Client) int {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	return len(c.inflight)
}

// TestPollAgentCancelDropsLateAnswer polls a raw datagram socket that
// stands in for a node, so the test decides when each inquiry is
// answered. The first round gives up on its inquiry at the deadline,
// as a discard does; the answer that lands afterwards is counted late
// and fills no slot, an inquiry after the cancel is answered into its
// slot, and a second answer to that inquiry counts late too.
func TestPollAgentCancelDropsLateAnswer(t *testing.T) {
	tr := testTransport(t)
	srv, err := tr.ListenPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ep := Endpoint{NodeID: 0, Service: "svc", LoadAddr: srv.LocalAddr()}
	c, err := NewClient(ClientConfig{
		Directory:       FixedDirectory{ep},
		Service:         "svc",
		Policy:          core.NewPollDiscard(1, 20*time.Millisecond),
		QuarantineAfter: -1,
		Transport:       tr,
		Seed:            12,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	type result struct {
		ok   bool
		err  error
		info *AccessInfo
	}
	round := func() chan result {
		done := make(chan result, 1)
		go func() {
			info := &AccessInfo{}
			_, ok, err := c.PollRound([]Endpoint{ep}, info)
			done <- result{ok, err, info}
		}()
		return done
	}
	// inquiry reads the next inquiry the stand-in node receives.
	buf := make([]byte, 64)
	inquiry := func() (uint32, string) {
		t.Helper()
		_ = srv.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, from, err := srv.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := DecodeInquiry(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		return seq, from
	}
	reply := func(seq uint32, load uint32, to string) {
		t.Helper()
		if _, err := srv.WriteTo(EncodeLoad(nil, seq, load), to); err != nil {
			t.Fatal(err)
		}
	}

	done := round()
	cancelled, from := inquiry()
	if res := <-done; res.err != nil || res.ok || res.info.Discarded != 1 {
		t.Fatalf("unanswered round: ok=%v err=%v discarded %d, want a dry round", res.ok, res.err, res.info.Discarded)
	}
	reply(cancelled, 5, from)
	waitUntil(t, func() bool { return c.LateAnswers() == 1 }, "the cancelled answer to be counted late")

	done = round()
	seq, from := inquiry()
	if seq == cancelled {
		t.Fatal("the next round reused the cancelled seq")
	}
	reply(seq, 7, from)
	res := <-done
	if res.err != nil || !res.ok || res.info.Answered != 1 {
		t.Fatalf("inquiry after the cancel: ok=%v err=%v answered %d", res.ok, res.err, res.info.Answered)
	}
	if got := c.LateAnswers(); got != 1 {
		t.Fatalf("LateAnswers %d after the answered round, want 1", got)
	}
	reply(seq, 9, from) // a second answer finds its slot already filled
	waitUntil(t, func() bool { return c.LateAnswers() == 2 }, "the duplicate answer to be counted late")
}

// TestPollAgentCountsLateAnswers polls a busy node whose answers take a
// deterministic 50 ms slow path, with a discard threshold far below it:
// the round gives up on the answer and withdraws its seq, and when the
// answer lands on the client's socket it is counted exactly once as
// late (§3.2's discarded slow poll).
func TestPollAgentCountsLateAnswers(t *testing.T) {
	n := startTestNode(t, NodeConfig{
		ID: 1, Service: "svc",
		SlowProb: 1, SlowDist: stats.Deterministic{Value: 0.05},
	})
	_, r, w := dialNode(t, n)
	if err := WriteRequest(w, &Request{ID: 1, Service: "svc", ServiceUs: 400000}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, func() bool { return n.LoadIndex() == 1 }, "the node to become busy")

	c, err := NewClient(ClientConfig{
		Directory:       FixedDirectory{n.Endpoint()},
		Service:         "svc",
		Policy:          core.NewPollDiscard(1, 5*time.Millisecond),
		QuarantineAfter: -1,
		Transport:       n.Transport(),
		Seed:            13,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	info := &AccessInfo{}
	if _, ok, err := c.PollRound(c.Endpoints(), info); err != nil || ok {
		t.Fatalf("round against the slow node: ok=%v err=%v, want a dry round", ok, err)
	}
	if info.Polled != 1 || info.Answered != 0 || info.Discarded != 1 {
		t.Fatalf("polled %d answered %d discarded %d, want 1/0/1", info.Polled, info.Answered, info.Discarded)
	}
	if n := inflight(c); n != 0 {
		t.Fatalf("the discarded inquiry is still registered (%d entries)", n)
	}
	waitUntil(t, func() bool { return c.LateAnswers() == 1 }, "the late answer to be counted")
	if _, err := ReadResponse(r); err != nil {
		t.Fatal(err)
	}
	if got := c.LateAnswers(); got != 1 {
		t.Fatalf("LateAnswers %d, want 1", got)
	}
}

// TestCloseUnblocksPollRound closes a client whose round is waiting on
// a paused node: Close must wake the round at once, long before its
// deadline, and the access must report why it ended.
func TestCloseUnblocksPollRound(t *testing.T) {
	tr := testTransport(t)
	n := startTestNode(t, NodeConfig{ID: 0, Service: "svc", SlowProb: -1, Transport: tr})
	n.Pause()
	t.Cleanup(n.Resume)
	// Without the wakeup the round would end only at its deadline,
	// faults.DefaultPollTimeout after its inquiry went out.
	const pollTimeout = faults.DefaultPollTimeout
	c, err := NewClient(ClientConfig{
		Directory: FixedDirectory{n.Endpoint()},
		Service:   "svc",
		Policy:    core.NewPoll(1),
		Transport: tr,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Access(0, nil)
		errc <- err
	}()
	waitUntil(t, func() bool { return n.Stats().Dropped >= 1 }, "the paused node to receive the inquiry")
	start := time.Now()
	c.Close()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "client closed during poll") {
			t.Fatalf("access ended with %v, want the client-closed error", err)
		}
		if d := time.Since(start); d > pollTimeout/2 {
			t.Fatalf("Close took %v to unblock the round", d)
		}
	case <-time.After(5 * pollTimeout):
		t.Fatal("Close did not unblock the round")
	}
	if n := inflight(c); n != 0 {
		t.Fatalf("%d inquiries still registered after Close", n)
	}
	if _, _, err := c.PollRound(c.Endpoints(), &AccessInfo{}); err != errPollClosed {
		t.Fatalf("a round after Close ended with %v, want errPollClosed", err)
	}
}

// TestLinkFaultsReplayInFanout checks that the poll fan-out replays a
// schedule's link rules on both transports: a loss-1 link keeps every
// inquiry off the wire, and a latency link delays every answer by at
// least the rule's latency.
func TestLinkFaultsReplayInFanout(t *testing.T) {
	const latency = 30 * time.Millisecond
	for _, tc := range []struct {
		name string
		tr   transport.Transport
	}{
		{"net", transport.Net{}},
		{"mem", transport.NewMem(transport.MemConfig{Seed: 1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lossy := startTestNode(t, NodeConfig{ID: 0, Service: "svc", SlowProb: -1, Transport: tc.tr})
			slow := startTestNode(t, NodeConfig{ID: 1, Service: "svc", SlowProb: -1, Transport: tc.tr})
			c, err := NewClient(ClientConfig{
				ID:              0,
				Directory:       FixedDirectory{lossy.Endpoint(), slow.Endpoint()},
				Service:         "svc",
				Policy:          core.NewPollDiscard(2, 4*latency),
				QuarantineAfter: -1,
				Transport:       tc.tr,
				Faults: &faults.Schedule{Seed: 3, Links: []faults.LinkRule{
					{Client: 0, Server: 0, Loss: 1},
					{Client: 0, Server: 1, Latency: latency},
				}},
				Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			for i := 0; i < 4; i++ {
				info, err := c.Access(0, nil)
				if err != nil {
					t.Fatal(err)
				}
				if info.Polled != 2 || info.Answered != 1 || info.Discarded != 1 || info.Server != 1 {
					t.Fatalf("access %d: polled %d answered %d discarded %d server %d, want 2/1/1 on node 1",
						i, info.Polled, info.Answered, info.Discarded, info.Server)
				}
				for _, rtt := range info.PollRTTs {
					if rtt < latency {
						t.Fatalf("access %d: answer in %v through a %v latency link", i, rtt, latency)
					}
				}
			}
			if st := lossy.Stats(); st.Inquiries+st.Dropped != 0 {
				t.Fatalf("a loss-1 link delivered %d inquiries", st.Inquiries+st.Dropped)
			}
		})
	}
}

// TestRoundSocketsBoundedOnNet is the FD and goroutine audit of the
// client on real sockets. Against 16 servers the client holds exactly
// one UDP socket and one answer reader, however many rounds are in
// flight: after sequential accesses, and after a burst of 256
// concurrent poll-3 accesses whose answers all land on that socket
// with none dropped by its receive buffer and none discarded. It holds
// at most one TCP connection and one stream reader per server, before
// and after the burst; and after Close — even one racing poll rounds
// and a call in flight — the process's file descriptors and goroutines
// return to their count before the client.
func TestRoundSocketsBoundedOnNet(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("needs /proc/self/fd")
	}
	tr := transport.Net{}
	var eps []Endpoint
	var nodes []*Node
	for i := 0; i < 16; i++ {
		n := startTestNode(t, NodeConfig{ID: i, Service: "svc", SlowProb: -1, Transport: tr, Seed: uint64(i + 1)})
		nodes = append(nodes, n)
		eps = append(eps, n.Endpoint())
	}
	newClient := func() *Client {
		c, err := NewClient(ClientConfig{
			Directory: FixedDirectory(eps), Service: "svc",
			Policy:          core.NewPoll(3),
			QuarantineAfter: -1,
			Transport:       tr,
			Seed:            6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	atBaseline := func(fds, goroutines int) func() bool {
		return func() bool { return countFDs(t) <= fds && runtime.NumGoroutine() <= goroutines }
	}
	readers := streamReaders()
	oneStreamPerServer := func(stage string) {
		t.Helper()
		conns := countTCPConnsTo(t, eps)
		if len(conns) == 0 {
			t.Fatalf("%s: found no client TCP connection", stage)
		}
		for addr, n := range conns {
			if n > 1 {
				t.Errorf("%s: the client holds %d TCP connections to %s, want at most 1", stage, n, addr)
			}
		}
		if got := streamReaders() - readers; got != len(conns) {
			t.Errorf("%s: %d stream reader goroutines for %d connected servers, want one each", stage, got, len(conns))
		}
	}

	fds, goroutines, udp := countFDs(t), runtime.NumGoroutine(), countUDPSockets(t)
	nodeReaders := datagramReaders()
	c := newClient()
	oneSocket := func(stage string) {
		t.Helper()
		if got := countUDPSockets(t) - udp; got != 1 {
			t.Errorf("%s: the client holds %d UDP sockets, want 1", stage, got)
		}
		if got := datagramReaders() - nodeReaders; got != 1 {
			t.Errorf("%s: %d answer readers, want exactly 1", stage, got)
		}
		if drops := udpDrops(t, c.conn.LocalAddr()); drops != 0 {
			t.Errorf("%s: the client's socket dropped %d datagrams", stage, drops)
		}
		if n := c.cfg.Metrics.PollDiscards.Value(); n != 0 {
			t.Errorf("%s: %d poll inquiries discarded, want 0", stage, n)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Access(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	oneSocket("sequential accesses")
	oneStreamPerServer("sequential accesses")
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 256; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := c.Access(200, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	oneSocket("a burst of 256 concurrent accesses")
	oneStreamPerServer("a burst of 256 concurrent accesses")
	c.Close()
	waitUntil(t, atBaseline(fds, goroutines), "FDs and goroutines to return to baseline after Close")

	// Rounds that include the paused node wait out the 1 s poll timeout,
	// and a call pinned to it waits on its stream, so Close lands while
	// several of both are in flight.
	nodes[0].Pause()
	t.Cleanup(nodes[0].Resume)
	c = newClient()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := c.Access(0, nil); err != nil {
					return
				}
			}
		}()
	}
	pinned := make(chan error, 1)
	go func() {
		_, err := c.AccessNode(0, 0, nil)
		pinned <- err
	}()
	waitUntil(t, func() bool { return nodes[0].Stats().Dropped >= 2 && nodes[0].LoadIndex() >= 1 },
		"rounds and a call to wait on the paused node")
	c.Close()
	select {
	case err := <-pinned:
		if err == nil {
			t.Error("a call pending on a paused node succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Error("Close left a call pending on its stream")
	}
	wg.Wait()
	waitUntil(t, atBaseline(fds, goroutines), "FDs and goroutines to return to baseline after a racing Close")
}

// countTCPConnsTo counts, by address, the process's open TCP sockets
// whose remote end is the access address of one of eps: the client
// ends of streams to those servers.
func countTCPConnsTo(t *testing.T, eps []Endpoint) map[string]int {
	t.Helper()
	table, err := os.ReadFile("/proc/net/tcp")
	if err != nil {
		t.Fatal(err)
	}
	byPort := map[uint64]string{}
	for _, ep := range eps {
		_, port, err := net.SplitHostPort(ep.AccessAddr)
		if err != nil {
			t.Fatal(err)
		}
		p, err := strconv.ParseUint(port, 10, 16)
		if err != nil {
			t.Fatal(err)
		}
		byPort[p] = ep.AccessAddr
	}
	remote := map[string]string{} // socket inode link -> server address
	for _, line := range strings.Split(string(table), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) <= 9 {
			continue
		}
		_, hexPort, _ := strings.Cut(f[2], ":")
		if p, err := strconv.ParseUint(hexPort, 16, 16); err == nil && byPort[p] != "" {
			remote["socket:["+f[9]+"]"] = byPort[p]
		}
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	conns := map[string]int{}
	for _, fd := range fds {
		if link, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && remote[link] != "" {
			conns[remote[link]]++
		}
	}
	return conns
}

// streamReaders counts the goroutines running a stream's reader.
func streamReaders() int {
	return goroutinesIn("cluster.(*stream).read")
}

// countFDs counts the process's open file descriptors.
func countFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// countUDPSockets counts the process's open IPv4 UDP sockets: its
// socket descriptors whose inode /proc/net/udp lists.
func countUDPSockets(t *testing.T) int {
	t.Helper()
	table, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		t.Fatal(err)
	}
	udp := map[string]bool{}
	for _, line := range strings.Split(string(table), "\n")[1:] {
		if f := strings.Fields(line); len(f) > 9 {
			udp["socket:["+f[9]+"]"] = true
		}
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fd := range fds {
		if link, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && udp[link] {
			n++
		}
	}
	return n
}

// datagramReaders counts the goroutines running a datagram socket's
// read loop: one per node and one per poll client on Net.
func datagramReaders() int {
	return goroutinesIn("cluster.serveDatagrams.func1")
}

// udpDrops reads the drops column of /proc/net/udp for the socket
// bound to addr: datagrams its full receive buffer turned away.
func udpDrops(t *testing.T, addr string) int {
	t.Helper()
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := strconv.ParseUint(port, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	table, err := os.ReadFile("/proc/net/udp")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(table), "\n")[1:] {
		f := strings.Fields(line)
		if len(f) <= 12 {
			continue
		}
		_, hexPort, _ := strings.Cut(f[1], ":")
		if lp, err := strconv.ParseUint(hexPort, 16, 16); err == nil && lp == p {
			drops, err := strconv.Atoi(f[12])
			if err != nil {
				t.Fatal(err)
			}
			return drops
		}
	}
	t.Fatalf("no /proc/net/udp entry for %s", addr)
	return 0
}

// goroutinesIn counts goroutines whose stack mentions fn.
func goroutinesIn(fn string) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, fn) {
			n++
		}
	}
	return n
}
