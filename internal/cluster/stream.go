package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"finelb/internal/transport"
)

// dialTimeout bounds one stream dial.
const dialTimeout = 2 * time.Second

var errCallerClosed = errors.New("cluster: caller closed")

// stream is one multiplexed connection from a Caller to one access
// address. Any number of calls share it: each registers a waiter under
// its request ID and writes its framed request under wmu, and the
// stream's one reader goroutine hands each response to the waiter of
// its ID. Responses come back in whatever order the node's workers
// finish; one whose ID has no waiter (its call timed out) is dropped.
// A read or write error breaks the stream: every pending call fails at
// once, and the Caller dials a new stream for the next call.
type stream struct {
	addr string
	// ready is closed once the dial has finished, either way. c is set
	// (under mu) before that and never changes after.
	ready chan struct{}
	c     net.Conn

	// users counts the calls that checked the stream out and have not
	// returned; prune keeps a stream in use.
	users atomic.Int32

	//lint:guards w
	wmu sync.Mutex
	w   *bufio.Writer

	//lint:guards pending, err
	mu      sync.Mutex
	pending map[uint64]*waiter
	err     error
}

func newStream(addr string) *stream {
	return &stream{addr: addr, ready: make(chan struct{}), pending: make(map[uint64]*waiter)}
}

// dial connects the stream and starts its reader, counted in readers.
// Calls that checked the stream out meanwhile wait on ready and share
// the outcome; a failed dial breaks the stream, so the next checkout
// dials afresh.
func (s *stream) dial(tr transport.Transport, readers *sync.WaitGroup) {
	defer close(s.ready)
	c, err := tr.Dial(s.addr, dialTimeout)
	if err != nil {
		s.fail(err)
		return
	}
	s.wmu.Lock()
	s.w = bufio.NewWriter(c)
	s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c = c
	if s.err != nil { // the Caller closed meanwhile
		_ = c.Close()
		return
	}
	readers.Add(1) // under mu, so before Close's fail and Wait
	go s.read(bufio.NewReader(c), readers)
}

// failure is the error that broke the stream, nil while it works.
func (s *stream) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// fail breaks the stream with err (the first error sticks), closes its
// connection and fails every pending call.
func (s *stream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	pending := s.pending
	s.pending = nil
	c := s.c
	s.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
	for _, w := range pending {
		w.ch <- nil
	}
}

// read hands each response to the call waiting on its ID until the
// connection fails.
func (s *stream) read(r *bufio.Reader, readers *sync.WaitGroup) {
	defer readers.Done()
	for {
		resp, err := ReadResponse(r)
		if err != nil {
			s.fail(err)
			return
		}
		s.mu.Lock()
		w := s.pending[resp.ID]
		delete(s.pending, resp.ID)
		s.mu.Unlock()
		if w != nil {
			w.ch <- resp
		}
	}
}

// call sends req and waits up to timeout for its response. A call
// that times out leaves the stream open; its response, if it ever
// comes, is dropped.
func (s *stream) call(req *Request, timeout time.Duration) (*Response, error) {
	defer s.users.Add(-1)
	<-s.ready
	w := waiters.Get().(*waiter)
	defer waiters.Put(w)
	s.mu.Lock()
	if err := s.err; err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.pending[req.ID] = w
	s.mu.Unlock()

	deadline := time.Now().Add(timeout)
	s.wmu.Lock()
	err := s.c.SetWriteDeadline(deadline)
	if err == nil {
		err = WriteRequest(s.w, req)
	}
	s.wmu.Unlock()
	if err != nil {
		s.fail(err) // hands w its nil below
	}

	resp, ok := w.wait(deadline)
	if !ok {
		s.mu.Lock()
		_, mine := s.pending[req.ID]
		delete(s.pending, req.ID)
		s.mu.Unlock()
		if mine {
			return nil, fmt.Errorf("cluster: no reply from %s within %v", s.addr, timeout)
		}
		resp = <-w.ch // handed over just as the call gave up
	}
	if resp == nil {
		return nil, s.failure()
	}
	return resp, nil
}

// waiter is one call's wait state: the channel its response (or nil,
// when the stream broke) is handed over on, and the timer bounding the
// wait. Waiters are pooled, so a steady-state call allocates neither.
type waiter struct {
	ch    chan *Response
	timer *time.Timer
}

var waiters = sync.Pool{New: func() any { return newWaiter() }}

func newWaiter() *waiter {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan *Response, 1), timer: t}
}

// wait blocks until a response is handed to w or deadline passes; ok
// is false on timeout. A timer fire left over from the waiter's
// previous call, which a stopped timer can still deliver under the
// go1.22 timer semantics this module builds with, re-arms the timer.
func (w *waiter) wait(deadline time.Time) (resp *Response, ok bool) {
	w.timer.Reset(time.Until(deadline))
	for {
		select {
		case resp := <-w.ch:
			if !w.timer.Stop() {
				select {
				case <-w.timer.C:
				default:
				}
			}
			return resp, true
		case <-w.timer.C:
			if d := time.Until(deadline); d > 0 {
				w.timer.Reset(d)
				continue
			}
			return nil, false
		}
	}
}
