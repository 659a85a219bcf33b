package cluster

import (
	"errors"
	"sync"
	"time"

	"finelb/internal/core"
	"finelb/internal/transport"
)

// errPollClosed reports a poll round cut short by Client.Close.
var errPollClosed = errors.New("cluster: client closed during poll")

// notSent marks a slot whose inquiry could not be written; -1 marks one
// still unanswered.
const notSent = -2

// pollRound is the reusable state of one poll round (§3.1-3.2): the
// slot table its answers fill and the waiter its owner parks on.
//
// Ownership rules (DESIGN.md §12): one access goroutine checks a round
// out of the pool and owns it until putRound. Its inquiries leave from
// the client's one datagram socket, each registered in c.inflight
// under its sequence number before the first is written. The client's
// answer handler files an answer into the slot its seq names and
// removes the entry, so a slot fills at most once; an answer whose seq
// is not registered (a duplicate, or one that came back after its
// round stopped waiting) is counted late. While any entry of the round
// is registered, its slots and pending belong to c.pendMu.
type pollRound struct {
	w *waiter // the owner parks here until the last answer or Close

	// Slots, in poll-set order.
	polled []int           // slot -> index into the round's endpoint table
	seqs   []uint32        // slot -> the inquiry's sequence number
	loads  []int64         // slot -> answered load; -1 unanswered, notSent
	rtts   []time.Duration // slot -> inquiry round trip, valid when loads >= 0

	// pending counts the round's registered inquiries plus one for the
	// owner until its fan-out is done. Whoever else brings it to zero (the
	// handler filing the last answer, or Close) hands the owner one
	// wake-up on w.
	pending int
	closed  bool // Close failed the round

	start     time.Time
	sendBuf   []byte // encode buffer for every inquiry in the round
	swaps     []int  // ChooseIdentity scratch
	responses []core.PollResponse
}

// inquiry is one registered load inquiry: the round and slot its
// answer fills.
type inquiry struct {
	r    *pollRound
	slot int
}

// roundPool pools poll rounds across every client of the process. A round
// owns no socket, so one the pool drops costs nothing but memory.
var roundPool = sync.Pool{New: func() any {
	return &pollRound{w: newWaiter(), sendBuf: make([]byte, 0, inquirySize)}
}}

// getRound checks a round out of the pool, sized for a poll set of d
// with every slot unanswered.
func getRound(d int) *pollRound {
	r := roundPool.Get().(*pollRound)
	if cap(r.polled) < d {
		r.seqs = make([]uint32, d)
		r.loads = make([]int64, d)
		r.rtts = make([]time.Duration, d)
		r.polled = make([]int, d)
		r.swaps = make([]int, d)
		r.responses = make([]core.PollResponse, 0, d)
	}
	r.seqs = r.seqs[:d]
	r.loads = r.loads[:d]
	r.rtts = r.rtts[:d]
	r.polled = r.polled[:d]
	r.swaps = r.swaps[:d]
	for i := range r.loads {
		r.loads[i] = -1
	}
	r.closed = false
	return r
}

// putRound returns a finished round, none of whose seqs is registered
// any longer, to the pool.
func putRound(r *pollRound) { roundPool.Put(r) }

// register enters every slot's seq in c.inflight, plus the owner's own
// hold on pending, before the round's first inquiry is written: on the
// mem fabric an answer arrives inside that write.
func (c *Client) register(r *pollRound) error {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	if c.closed.Load() {
		return errPollClosed
	}
	for i, seq := range r.seqs {
		c.inflight[seq] = inquiry{r, i}
	}
	r.pending = len(r.seqs) + 1
	return nil
}

// unsend withdraws slot i, whose inquiry could not be written. The
// owner's hold keeps pending above zero.
func (c *Client) unsend(r *pollRound, i int) {
	c.pendMu.Lock()
	if _, ok := c.inflight[r.seqs[i]]; ok {
		delete(c.inflight, r.seqs[i])
		r.pending--
	}
	r.loads[i] = notSent
	c.pendMu.Unlock()
}

// inquire sends the load inquiry seq to target from the client's
// socket, replaying the client→server link's injected faults first
// (faults.LinkRule). A dropped inquiry is never written but still
// counts as sent: the client learns of the loss only through silence,
// as on a lossy network. It is counted in
// server_inquiries_dropped_total, as the simulator counts a lost
// inquiry. A delayed inquiry is written from a timer, which reaches the
// round's clock the way a slow link would.
//
//lint:noalloc
func (c *Client) inquire(r *pollRound, seq uint32, target *Endpoint) error {
	msg := EncodeInquiry(r.sendBuf[:0], seq)
	drop, delay := c.links.PollFault(target.NodeID)
	if drop {
		c.cfg.Metrics.InquiriesDropped.Inc()
		return nil
	}
	if delay > 0 {
		writeLater(c.conn, msg, target.LoadAddr, delay)
		return nil
	}
	_, err := c.conn.WriteTo(msg, target.LoadAddr)
	return err
}

// writeLater sends a copy of msg to addr from conn once delay has
// passed: an injected link latency. If the round has stopped waiting
// by then, its answer is counted late.
func writeLater(conn transport.PacketConn, msg []byte, addr string, delay time.Duration) {
	buf := append([]byte(nil), msg...)
	time.AfterFunc(delay, func() { _, _ = conn.WriteTo(buf, addr) })
}

// answer is the client socket's datagram handler: it files one load
// answer into the slot that asked for it, and wakes the round's owner
// when that was the last one. An answer no registered inquiry is
// waiting for is counted late (§3.2's discarded slow poll). It runs on
// the answering node's goroutine on the mem fabric and on the client's
// read loop on Net.
//
//lint:noalloc
func (c *Client) answer(p []byte, _ string) {
	seq, load, err := DecodeLoad(p)
	if err != nil {
		return
	}
	c.pendMu.Lock()
	q, ok := c.inflight[seq]
	var last bool
	if ok {
		delete(c.inflight, seq)
		r := q.r
		r.loads[q.slot] = int64(load)
		r.rtts[q.slot] = time.Since(r.start)
		r.pending--
		last = r.pending == 0
	}
	c.pendMu.Unlock()
	switch {
	case !ok:
		c.late.Add(1)
		c.cfg.Metrics.PollLate.Inc()
	case last:
		q.r.w.ch <- nil
	}
}

// collect drops the owner's hold on the round and waits until every
// sent inquiry is answered or the deadline passes; at the deadline the
// unanswered ones are discarded (§3.2) and their seqs withdrawn. It
// reports errPollClosed when Close cut the round short.
//
//lint:noalloc
func (c *Client) collect(r *pollRound, deadline time.Time) error {
	c.pendMu.Lock()
	held := r.pending > 0 // Close may have taken the hold already
	if held {
		r.pending--
	}
	done := held && r.pending == 0
	c.pendMu.Unlock()
	if !done {
		if _, ok := r.w.wait(deadline); !ok {
			c.pendMu.Lock()
			mine := r.pending > 0
			if mine {
				for i, seq := range r.seqs {
					if r.loads[i] == -1 {
						delete(c.inflight, seq)
					}
				}
				r.pending = 0
			}
			c.pendMu.Unlock()
			if !mine {
				<-r.w.ch // the last answer or Close came just as the wait gave up
			}
		}
	}
	if r.closed {
		return errPollClosed
	}
	return nil
}

// failRounds ends every round with an inquiry pending: Close's half of
// the poll path. Each round is woken once, with closed set.
func (c *Client) failRounds() {
	var failed []*pollRound
	c.pendMu.Lock()
	for _, q := range c.inflight {
		if q.r.pending > 0 {
			q.r.pending = 0
			q.r.closed = true
			failed = append(failed, q.r)
		}
	}
	clear(c.inflight)
	c.pendMu.Unlock()
	for _, r := range failed {
		r.w.ch <- nil
	}
}

// serveDatagrams hands every datagram conn receives to h: as the conn's
// handler on transports that deliver synchronously (mem), otherwise
// from a read loop counted in wg that ends when conn closes (Net).
func serveDatagrams(conn transport.PacketConn, h transport.PacketHandler, wg *sync.WaitGroup) {
	if hc, ok := conn.(transport.HandlerPacketConn); ok && hc.SetPacketHandler(h) {
		return
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		for {
			n, from, err := conn.ReadFrom(buf)
			if err != nil {
				return // closed
			}
			h(buf[:n], from)
		}
	}()
}
