package cluster

import (
	"os"
	"runtime"
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
	// abandons a slow node's answer at the threshold, and when that
	// answer eventually lands the client's aggregate counter sees it.
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
		Policy:      core.NewPollDiscard(1, 30*time.Millisecond),
		PollRetries: -1,
		Transport:   testTransport(t),
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	info, err := c.Access(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Discarded != 1 {
		t.Fatalf("discarded %d, want 1", info.Discarded)
	}
	if c.LateAnswers() != 0 {
		t.Fatal("late answer counted before it arrived")
	}
	waitUntil(t, func() bool { return c.LateAnswers() == 1 }, "the slow answer to arrive and be counted late")
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
		Policy:      core.NewPollDiscard(2, 40*time.Millisecond),
		PollRetries: -1, // a single round, so the accounting is exact
		Faults:      deafTo(-1),
		Transport:   testTransport(t),
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	info, err := c.Access(100, nil)
	if err != nil {
		t.Fatal(err) // random fallback must still complete the access
	}
	if info.Polled != 2 || info.Answered != 0 || info.Discarded != 2 {
		t.Fatalf("polled %d answered %d discarded %d, want 2/0/2",
			info.Polled, info.Answered, info.Discarded)
	}
	if info.PollTime < 40*time.Millisecond {
		t.Fatalf("poll returned before the discard deadline: %v", info.PollTime)
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
	// Default PollRetries is 1: a dry first round is retried once, and
	// each round gets a fresh full deadline (the second round must not
	// inherit the first round's fired timer).
	if info.Retries != 1 {
		t.Fatalf("retries %d, want 1", info.Retries)
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
		PollRetries:     -1,
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
		RefreshInterval: 20 * time.Millisecond, AccessRetries: -1, Seed: 8,
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
			Transport:     node.Transport(),
			AccessRetries: -1, Seed: 9,
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

// TestStaleAnswerOnReusedRoundSocket delivers an answer to an earlier
// round's inquiry to the idle round socket the next round reuses. The
// next round must count it late and keep it out of its slots: here the
// stale seq is the deaf node's discarded inquiry (its link lost it,
// but it still took a seq), and letting it fill that node's new slot
// would report two answers instead of one.
func TestStaleAnswerOnReusedRoundSocket(t *testing.T) {
	tr := testTransport(t)
	alive := startTestNode(t, NodeConfig{ID: 0, Service: "svc", SlowProb: -1, Transport: tr})
	deaf := startTestNode(t, NodeConfig{ID: 1, Service: "svc", SlowProb: -1, Transport: tr})
	c, err := NewClient(ClientConfig{
		Directory:       FixedDirectory{alive.Endpoint(), deaf.Endpoint()},
		Service:         "svc",
		Policy:          core.NewPollDiscard(2, 50*time.Millisecond),
		PollRetries:     -1,
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
	if _, ok, err := c.pollOnce(c.Endpoints(), first); err != nil || !ok || first.Answered != 1 {
		t.Fatalf("first round: ok=%v err=%v answered=%d", ok, err, first.Answered)
	}
	c.roundMu.Lock()
	idle := append([]*pollRound(nil), c.idle...)
	c.roundMu.Unlock()
	if len(idle) != 1 {
		t.Fatalf("%d idle rounds after one round, want 1", len(idle))
	}
	r := idle[0]
	var deafSeq uint32
	for i, epIdx := range r.epIdx {
		if c.Endpoints()[epIdx].NodeID == deaf.cfg.ID {
			deafSeq = r.seqs[i]
		}
	}

	src, err := tr.ListenPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := src.WriteTo(EncodeLoad(nil, deafSeq, 0), r.conn.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	second := &AccessInfo{}
	ep, ok, err := c.pollOnce(c.Endpoints(), second)
	if err != nil || !ok {
		t.Fatalf("second round: ok=%v err=%v", ok, err)
	}
	c.roundMu.Lock()
	minted := len(c.rounds)
	c.roundMu.Unlock()
	if minted != 1 {
		t.Fatalf("sequential rounds minted %d sockets, want 1", minted)
	}
	if second.Answered != 1 || second.Discarded != 1 || ep.NodeID != alive.cfg.ID {
		t.Fatalf("stale answer leaked into the round: answered %d discarded %d picked node %d",
			second.Answered, second.Discarded, ep.NodeID)
	}
	// Read by the round itself, before any LateAnswers drain.
	if got := c.late.Load(); got != 1 {
		t.Fatalf("round counted %d late answers, want 1", got)
	}
	if got := c.LateAnswers(); got != 1 {
		t.Fatalf("LateAnswers %d, want 1", got)
	}
}

// TestPollAgentCancelDropsLateAnswer abandons a round right after its
// inquiry is sent, as a discard does. The answer lands on the idle
// socket; the next owner of that socket must drop it rather than fill
// its own slot with it, and an inquiry after the cancel still works.
func TestPollAgentCancelDropsLateAnswer(t *testing.T) {
	_, nodes := testCluster(t, 1, false)
	ep := nodes[0].Endpoint()
	c, err := NewClient(ClientConfig{
		Directory:       FixedDirectory{ep},
		Service:         "svc",
		Policy:          core.NewPoll(1),
		PollRetries:     -1,
		QuarantineAfter: -1,
		Transport:       nodes[0].Transport(),
		Seed:            12,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// send checks a round out, sends it one inquiry and returns it.
	send := func() (*pollRound, uint32) {
		t.Helper()
		r, err := c.getRound(1)
		if err != nil {
			t.Fatal(err)
		}
		r.start = time.Now()
		seq := c.seq.Add(1)
		if err := c.inquire(r, seq, &ep); err != nil {
			t.Fatal(err)
		}
		r.epIdx[0], r.seqs[0] = 0, seq
		return r, seq
	}

	r1, _ := send()
	r1.owed++ // cancel: the round gives up on its answer unread
	c.putRound(r1)
	waitUntil(t, func() bool { return nodes[0].Stats().Inquiries == 1 }, "the node to answer the cancelled inquiry")

	// The next round reuses the socket under a fresh seq it never sends,
	// so the only answer it can read is the cancelled one.
	r2, err := c.getRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != r1 {
		t.Fatal("the next round did not reuse the idle socket")
	}
	r2.start = time.Now()
	r2.epIdx[0], r2.seqs[0] = 0, c.seq.Add(1)
	if err := c.collect(r2, 1, r2.start.Add(200*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if r2.loads[0] >= 0 {
		t.Fatalf("cancelled answer filled the next round's slot with load %d", r2.loads[0])
	}
	c.putRound(r2)
	waitUntil(t, func() bool { return c.LateAnswers() == 1 }, "the cancelled answer to be counted late")

	// An inquiry after the cancel is answered into its slot.
	r3, _ := send()
	if err := c.collect(r3, 1, r3.start.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if r3.loads[0] < 0 {
		t.Fatal("inquiry after the cancel unanswered")
	}
	c.putRound(r3)
	if got := c.LateAnswers(); got != 1 {
		t.Fatalf("LateAnswers %d after the answered round, want 1", got)
	}
}

// TestPollAgentCountsLateAnswers polls a busy node whose answers take a
// deterministic 50 ms slow path, with a discard threshold far below it:
// the round gives up on the answer, and when it lands the client counts
// exactly one late answer (§3.2's discarded slow poll) and files it
// into no slot.
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
		PollRetries:     -1,
		QuarantineAfter: -1,
		Transport:       n.Transport(),
		Seed:            13,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	info := &AccessInfo{}
	if _, ok, err := c.pollOnce(c.Endpoints(), info); err != nil || ok {
		t.Fatalf("round against the slow node: ok=%v err=%v, want a dry round", ok, err)
	}
	if info.Polled != 1 || info.Answered != 0 || info.Discarded != 1 {
		t.Fatalf("polled %d answered %d discarded %d, want 1/0/1", info.Polled, info.Answered, info.Discarded)
	}
	waitUntil(t, func() bool { return c.LateAnswers() == 1 }, "the late answer to be counted")
	c.roundMu.Lock()
	idle := append([]*pollRound(nil), c.idle...)
	c.roundMu.Unlock()
	if len(idle) != 1 {
		t.Fatalf("%d idle rounds after one round, want 1", len(idle))
	}
	if load := idle[0].loads[0]; load >= 0 {
		t.Fatalf("discarded inquiry still delivered load %d", load)
	}
	if _, err := ReadResponse(r); err != nil {
		t.Fatal(err)
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
	const pollTimeout = 10 * time.Second
	c, err := NewClient(ClientConfig{
		Directory:   FixedDirectory{n.Endpoint()},
		Service:     "svc",
		Policy:      core.NewPoll(1),
		PollTimeout: pollTimeout,
		PollRetries: -1,
		Transport:   tr,
		Seed:        4,
	})
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := c.Access(0, nil)
		errc <- err
	}()
	waitUntil(t, func() bool { return n.Stats().Dropped == 1 }, "the paused node to receive the inquiry")
	start := time.Now()
	c.Close()
	select {
	case err := <-errc:
		if err == nil || !strings.Contains(err.Error(), "client closed during poll") {
			t.Fatalf("access ended with %v, want the client-closed error", err)
		}
		if d := time.Since(start); d > pollTimeout/10 {
			t.Fatalf("Close took %v to unblock the round", d)
		}
	case <-time.After(pollTimeout / 2):
		t.Fatal("Close did not unblock the round")
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
				PollRetries:     -1,
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
// poll path on real sockets. Sequential accesses against 16 servers
// hold exactly one client UDP socket and park no client goroutine;
// after Close — even one racing rounds in flight — the process's file
// descriptors and goroutines return to their count before the client.
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

	fds, goroutines, udp := countFDs(t), runtime.NumGoroutine(), countUDPSockets(t)
	c := newClient()
	for i := 0; i < 50; i++ {
		if _, err := c.Access(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := countUDPSockets(t) - udp; got != 1 {
		t.Errorf("sequential accesses hold %d client UDP sockets, want 1", got)
	}
	if got := clientGoroutines(); got != 0 {
		t.Errorf("%d goroutines parked in client code between accesses, want 0", got)
	}
	c.Close()
	waitUntil(t, atBaseline(fds, goroutines), "FDs and goroutines to return to baseline after Close")

	// Rounds that include the paused node wait out the 1 s poll timeout,
	// so Close lands while several are in flight.
	nodes[0].Pause()
	t.Cleanup(nodes[0].Resume)
	c = newClient()
	var wg sync.WaitGroup
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
	waitUntil(t, func() bool { return nodes[0].Stats().Dropped >= 2 }, "rounds to wait on the paused node")
	c.Close()
	wg.Wait()
	waitUntil(t, atBaseline(fds, goroutines), "FDs and goroutines to return to baseline after a racing Close")
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

// clientGoroutines counts goroutines with a Client method on their
// stack.
func clientGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "cluster.(*Client)") {
			n++
		}
	}
	return n
}
