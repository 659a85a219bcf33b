package cluster

import (
	"errors"
	"fmt"
	"time"

	"finelb/internal/core"
	"finelb/internal/transport"
)

// errPollClosed reports a poll round cut short by Client.Close.
var errPollClosed = errors.New("cluster: client closed during poll")

// pollRound is the reusable state of one poll round (§3.1-3.2): an
// unconnected datagram socket that sends the round's inquiries and
// reads their answers, plus the slot tables the answers fill.
//
// Ownership rules (DESIGN.md §12): a round is checked out of the
// client's free list by one access goroutine, which owns all of it —
// socket, slots and buffers — until putRound. The owner reads its own
// answers, so nothing else touches a round and it needs no lock. An
// answer to an earlier use of the socket can still arrive; sequence
// numbers are client-global and monotone, so its seq matches no slot
// of the current round, and it is counted late and dropped.
type pollRound struct {
	conn transport.PacketConn

	// Slots, indexed by the order inquiries were sent.
	epIdx []int           // slot -> index into the round's endpoint table
	seqs  []uint32        // slot -> the inquiry's sequence number
	loads []int64         // slot -> answered load; -1 = unanswered
	rtts  []time.Duration // slot -> inquiry round trip, valid when loads >= 0

	// owed counts the inquiries of earlier uses that went unanswered:
	// late answers that may still arrive on the socket.
	owed int

	start     time.Time
	sendBuf   []byte // encode buffer for every inquiry in the round
	recvBuf   []byte // read buffer for every answer
	polled    []int
	swaps     []int
	responses []core.PollResponse
}

// getRound checks a round out of the client's free list, sized for a
// poll set of d with every slot unanswered. When every round is in
// flight it mints one, with a fresh socket from the transport.
func (c *Client) getRound(d int) (*pollRound, error) {
	if c.closed.Load() {
		return nil, errPollClosed
	}
	c.roundMu.Lock()
	var r *pollRound
	if n := len(c.idle); n > 0 {
		r = c.idle[n-1]
		c.idle = c.idle[:n-1]
	}
	c.roundMu.Unlock()
	if r == nil {
		var err error
		if r, err = c.newRound(); err != nil {
			return nil, err
		}
	}
	if cap(r.epIdx) < d {
		r.epIdx = make([]int, d)
		r.seqs = make([]uint32, d)
		r.loads = make([]int64, d)
		r.rtts = make([]time.Duration, d)
		r.polled = make([]int, d)
		r.swaps = make([]int, d)
		r.responses = make([]core.PollResponse, 0, d)
	}
	r.epIdx = r.epIdx[:d]
	r.seqs = r.seqs[:d]
	r.loads = r.loads[:d]
	r.rtts = r.rtts[:d]
	r.polled = r.polled[:d]
	r.swaps = r.swaps[:d]
	for i := range r.loads {
		r.loads[i] = -1
	}
	return r, nil
}

// newRound mints a round and its socket and registers it with the
// client, so Close can reach it wherever it is.
func (c *Client) newRound() (*pollRound, error) {
	conn, err := c.tr.ListenPacket()
	if err != nil {
		return nil, fmt.Errorf("cluster: poll socket: %w", err)
	}
	r := &pollRound{
		conn:    conn,
		sendBuf: make([]byte, 0, inquirySize),
		recvBuf: make([]byte, 64),
	}
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	if c.closed.Load() {
		_ = conn.Close()
		return nil, errPollClosed
	}
	c.rounds = append(c.rounds, r)
	return r, nil
}

// putRound returns a finished round to the free list. Its socket stays
// open: answers the round gave up on may still arrive there, and the
// next owner (or LateAnswers) counts them late.
func (c *Client) putRound(r *pollRound) {
	c.roundMu.Lock()
	c.idle = append(c.idle, r)
	c.roundMu.Unlock()
}

// inquire sends the load inquiry seq to target from the round's
// socket, replaying the client→server link's injected faults first
// (faults.LinkRule). A dropped inquiry is never written but still
// counts as sent: the client learns of the loss only through silence,
// as on a lossy network. A delayed inquiry is written from a timer,
// which reaches the round's clock the way a slow link would.
//
//lint:noalloc
func (c *Client) inquire(r *pollRound, seq uint32, target *Endpoint) error {
	msg := EncodeInquiry(r.sendBuf[:0], seq)
	drop, delay := c.links.PollFault(target.NodeID)
	if drop {
		return nil
	}
	if delay > 0 {
		writeLater(r.conn, msg, target.LoadAddr, delay)
		return nil
	}
	_, err := r.conn.WriteTo(msg, target.LoadAddr)
	return err
}

// writeLater sends a copy of msg to addr from conn once delay has
// passed: an injected link latency. If the round has finished by then,
// the answer reaches the socket's next owner and is counted late.
func writeLater(conn transport.PacketConn, msg []byte, addr string, delay time.Duration) {
	buf := append([]byte(nil), msg...)
	time.AfterFunc(delay, func() { _, _ = conn.WriteTo(buf, addr) })
}

// collect reads the round's answers until all sent inquiries are
// answered or the round's deadline passes, and reports errPollClosed
// when Close cut the round short.
//
//lint:noalloc
func (c *Client) collect(r *pollRound, sent int, deadline time.Time) error {
	if sent == 0 {
		return nil
	}
	_ = r.conn.SetReadDeadline(deadline)
	for got := 0; got < sent; {
		n, err := r.conn.Read(r.recvBuf)
		if err != nil {
			if c.closed.Load() {
				return errPollClosed
			}
			// The deadline passed: the unanswered inquiries are discarded
			// (§3.2). An unconnected socket gets no ICMP errors, so a dead
			// server is silence, not a failed read.
			return nil
		}
		if c.record(r, sent, r.recvBuf[:n]) {
			got++
		}
	}
	return nil
}

// record files one answer into the slot that asked for it and reports
// whether it did. An answer matching no unanswered slot among the
// first sent came back after its round stopped waiting: a discarded
// slow poll, counted late.
//
//lint:noalloc
func (c *Client) record(r *pollRound, sent int, p []byte) bool {
	seq, load, err := DecodeLoad(p)
	if err != nil {
		return false
	}
	for i := 0; i < sent; i++ {
		if r.seqs[i] == seq && r.loads[i] < 0 {
			r.loads[i] = int64(load)
			r.rtts[i] = time.Since(r.start)
			return true
		}
	}
	c.late.Add(1)
	c.cfg.Metrics.PollLate.Inc()
	if r.owed > 0 {
		r.owed--
	}
	return false
}

// drainWait bounds how long draining an idle round socket waits for
// owed answers that have not arrived.
const drainWait = time.Millisecond

// drainLocked reads and counts the late answers an idle round is still
// owed. Caller holds c.roundMu, which keeps the round idle. A round
// owed nothing returns at once; otherwise the wait for answers not yet
// arrived (or lost) is bounded by drainWait.
func (c *Client) drainLocked(r *pollRound) {
	if r.owed == 0 {
		return
	}
	_ = r.conn.SetReadDeadline(time.Now().Add(drainWait))
	for r.owed > 0 {
		n, err := r.conn.Read(r.recvBuf)
		if err != nil {
			return
		}
		c.record(r, 0, r.recvBuf[:n])
	}
}
