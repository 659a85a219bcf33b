package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// memStreamPair dials a fresh listener on its own fabric and returns
// the dialer's end and the accepted end; both close with the test.
func memStreamPair(t *testing.T) (cli, srv net.Conn) {
	t.Helper()
	m := NewMem(MemConfig{Seed: 1})
	ln, err := m.Listen()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	cli, err = m.Dial(ln.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cli.Close()
		_ = srv.Close()
	})
	return cli, srv
}

// result is one blocked operation's outcome, reported from its own
// goroutine.
type result struct {
	n   int
	err error
}

// blocked starts op on a goroutine and checks it is still blocked a
// short while later.
func blocked(t *testing.T, op func() (int, error)) <-chan result {
	t.Helper()
	done := make(chan result, 1)
	go func() {
		n, err := op()
		done <- result{n, err}
	}()
	select {
	case r := <-done:
		t.Fatalf("operation did not block: n=%d err=%v", r.n, r.err)
	case <-time.After(30 * time.Millisecond):
	}
	return done
}

// finished waits for a blocked operation to return.
func finished(t *testing.T, done <-chan result) result {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("operation still blocked")
		return result{}
	}
}

// fill writes into w until its buffer is full, so the next write
// blocks.
func fill(t *testing.T, w net.Conn) {
	t.Helper()
	if err := w.SetWriteDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	n, err := w.Write(make([]byte, 2*memStreamBuf))
	if !errors.Is(err, os.ErrDeadlineExceeded) || n != memStreamBuf {
		t.Fatalf("filling write: n=%d err=%v, want %d bytes and a deadline error", n, err, memStreamBuf)
	}
	if err := w.SetWriteDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

func TestMemStreamPingPong(t *testing.T) {
	cli, srv := memStreamPair(t)
	go func() {
		buf := make([]byte, 16)
		for {
			n, err := srv.Read(buf)
			if err != nil {
				return
			}
			if _, err := srv.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, 16)
	for i := 0; i < 1000; i++ {
		msg := []byte{byte(i), byte(i >> 8), 'x'}
		if _, err := cli.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(cli, buf[:len(msg)]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:len(msg)], msg) {
			t.Fatalf("exchange %d: got %v, want %v", i, buf[:len(msg)], msg)
		}
	}
}

// TestMemStreamBackpressure writes past the buffer: with nobody
// reading, the write deadline fires after exactly one buffer's worth;
// with a reader, a write many buffers long completes intact.
func TestMemStreamBackpressure(t *testing.T) {
	cli, srv := memStreamPair(t)
	fill(t, cli)

	big := make([]byte, 5*memStreamBuf+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(srv)
		got <- b
	}()
	if n, err := cli.Write(big); err != nil || n != len(big) {
		t.Fatalf("large write: n=%d err=%v", n, err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	b := <-got
	if len(b) != memStreamBuf+len(big) || !bytes.Equal(b[memStreamBuf:], big) {
		t.Fatalf("reader got %d bytes, want %d with the large write intact", len(b), memStreamBuf+len(big))
	}
}

// TestMemStreamEOFAfterPeerClose checks buffered bytes outlive the
// writer's Close and are followed by io.EOF.
func TestMemStreamEOFAfterPeerClose(t *testing.T) {
	cli, srv := memStreamPair(t)
	if _, err := cli.Write([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(srv)
	if err != nil || string(b) != "last words" {
		t.Fatalf("read %q, %v; want the buffered bytes then EOF", b, err)
	}
	if _, err := srv.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after EOF: %v, want io.EOF", err)
	}
	// A reader already blocked when the peer closes sees EOF too.
	a, b2 := memStreamPair(t)
	done := blocked(t, func() (int, error) { return b2.Read(make([]byte, 8)) })
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if r := finished(t, done); r.err != io.EOF {
		t.Fatalf("blocked read after peer close: %v, want io.EOF", r.err)
	}
}

// TestMemStreamLocalClose checks every operation on a closed end fails
// with net.ErrClosed, including ones blocked when Close runs.
func TestMemStreamLocalClose(t *testing.T) {
	cli, _ := memStreamPair(t)
	fill(t, cli)
	writeDone := blocked(t, func() (int, error) { return cli.Write([]byte("more")) })
	readDone := blocked(t, func() (int, error) { return cli.Read(make([]byte, 8)) })
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if r := finished(t, writeDone); !errors.Is(r.err, net.ErrClosed) {
		t.Fatalf("blocked write on closed end: %v, want net.ErrClosed", r.err)
	}
	if r := finished(t, readDone); !errors.Is(r.err, net.ErrClosed) {
		t.Fatalf("blocked read on closed end: %v, want net.ErrClosed", r.err)
	}
	if _, err := cli.Read(make([]byte, 1)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("read on closed end: %v, want net.ErrClosed", err)
	}
	if _, err := cli.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Errorf("write on closed end: %v, want net.ErrClosed", err)
	}
	if err := cli.SetDeadline(time.Now().Add(time.Second)); !errors.Is(err, net.ErrClosed) {
		t.Errorf("SetDeadline on closed end: %v, want net.ErrClosed", err)
	}
	if err := cli.Close(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("second Close: %v, want net.ErrClosed", err)
	}
}

// TestMemStreamWriteToClosedPeer checks writes fail once the reading
// end is gone, including a write blocked on a full buffer.
func TestMemStreamWriteToClosedPeer(t *testing.T) {
	cli, srv := memStreamPair(t)
	fill(t, cli)
	done := blocked(t, func() (int, error) { return cli.Write([]byte("more")) })
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if r := finished(t, done); r.err == nil || errors.Is(r.err, net.ErrClosed) {
		t.Fatalf("blocked write to closed peer: %v, want a closed-pipe error", r.err)
	}
	if _, err := cli.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write to closed peer: %v, want io.ErrClosedPipe", err)
	}
}

// TestMemStreamDeadlines runs each deadline case against a read with
// nothing to read and a write into a full buffer.
func TestMemStreamDeadlines(t *testing.T) {
	type side struct {
		name string
		// setup returns the end under test, how to set its deadline,
		// the blocking op, and how to unblock the op.
		setup func(t *testing.T) (set func(time.Time) error, op func() (int, error), unblock func())
	}
	sides := []side{
		{"read", func(t *testing.T) (func(time.Time) error, func() (int, error), func()) {
			cli, srv := memStreamPair(t)
			return srv.SetReadDeadline,
				func() (int, error) { return srv.Read(make([]byte, 8)) },
				func() { _, _ = cli.Write([]byte("data")) }
		}},
		{"write", func(t *testing.T) (func(time.Time) error, func() (int, error), func()) {
			cli, srv := memStreamPair(t)
			fill(t, cli)
			return cli.SetWriteDeadline,
				func() (int, error) { return cli.Write([]byte("data")) },
				func() { _, _ = srv.Read(make([]byte, 1024)) }
		}},
	}
	for _, s := range sides {
		t.Run(s.name+"/past", func(t *testing.T) {
			set, op, unblock := s.setup(t)
			unblock() // even a ready operation fails past its deadline
			if err := set(time.Now().Add(-time.Second)); err != nil {
				t.Fatal(err)
			}
			if _, err := op(); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("err = %v, want deadline exceeded", err)
			}
		})
		t.Run(s.name+"/future", func(t *testing.T) {
			set, op, _ := s.setup(t)
			if err := set(time.Now().Add(40 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err := op()
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("err = %v, want deadline exceeded", err)
			}
			if d := time.Since(start); d < 40*time.Millisecond {
				t.Fatalf("deadline fired after %v, before it was due", d)
			}
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("deadline error %v is not a net.Error timeout", err)
			}
		})
		t.Run(s.name+"/cleared", func(t *testing.T) {
			set, op, unblock := s.setup(t)
			if err := set(time.Now().Add(-time.Second)); err != nil {
				t.Fatal(err)
			}
			if err := set(time.Time{}); err != nil {
				t.Fatal(err)
			}
			done := blocked(t, op)
			unblock()
			if r := finished(t, done); r.err != nil {
				t.Fatalf("op after clearing the deadline: %v", r.err)
			}
		})
		t.Run(s.name+"/changed_while_blocked", func(t *testing.T) {
			set, op, unblock := s.setup(t)
			if err := set(time.Now().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			done := blocked(t, op)
			// Moving the deadline into the past takes effect at once:
			// this is how http.Server aborts its background read.
			if err := set(time.Now().Add(-time.Second)); err != nil {
				t.Fatal(err)
			}
			if r := finished(t, done); !errors.Is(r.err, os.ErrDeadlineExceeded) {
				t.Fatalf("op after the deadline moved into the past: %v", r.err)
			}
			// Extending a near deadline keeps the op blocked past it.
			if err := set(time.Now().Add(100 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			done = blocked(t, op)
			if err := set(time.Now().Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			select {
			case r := <-done:
				t.Fatalf("op returned n=%d err=%v despite the extended deadline", r.n, r.err)
			case <-time.After(150 * time.Millisecond):
			}
			unblock()
			if r := finished(t, done); r.err != nil {
				t.Fatalf("op after extension: %v", r.err)
			}
		})
	}
}

// TestMemStreamWritesDoNotInterleave runs concurrent writers, some
// writes larger than the buffer, and checks each Write's bytes arrive
// contiguous.
func TestMemStreamWritesDoNotInterleave(t *testing.T) {
	cli, srv := memStreamPair(t)
	const writers, writes = 4, 8
	sizes := []int{100, memStreamBuf/2 + 1, 3*memStreamBuf + 5}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				msg := bytes.Repeat([]byte{byte(1 + w*writes + i)}, sizes[(w+i)%len(sizes)])
				if _, err := cli.Write(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		_ = cli.Close()
	}()
	b, err := io.ReadAll(srv)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[byte]bool{}
	for len(b) > 0 {
		v := b[0]
		if seen[v] {
			t.Fatalf("write %d arrived in more than one piece", v)
		}
		seen[v] = true
		run := 0
		for run < len(b) && b[run] == v {
			run++
		}
		w, i := int(v-1)/writes, int(v-1)%writes
		if want := sizes[(w+i)%len(sizes)]; run != want {
			t.Fatalf("write %d arrived as %d contiguous bytes, want %d", v, run, want)
		}
		b = b[run:]
	}
	if len(seen) != writers*writes {
		t.Fatalf("saw %d writes, want %d", len(seen), writers*writes)
	}
}

// TestMemStreamNoGoroutines checks streams run no goroutine of their
// own, open or closed, even after deadline waits.
func TestMemStreamNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	m := NewMem(MemConfig{Seed: 1})
	ln, err := m.Listen()
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	for i := 0; i < 50; i++ {
		c, err := m.Dial(ln.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		_ = s.SetReadDeadline(time.Now().Add(time.Millisecond))
		if _, err := s.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read: %v", err)
		}
		_, _ = c.Write([]byte("x"))
		conns = append(conns, c, s)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines with 50 open streams, %d before", n, before)
	}
	for _, c := range conns {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after closing every stream, %d before", n, before)
	}
}

func TestMemStreamAddrs(t *testing.T) {
	m := NewMem(MemConfig{Seed: 1})
	ln, err := m.Listen()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := m.Dial(ln.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, a := range []net.Addr{c.LocalAddr(), c.RemoteAddr(), s.LocalAddr(), s.RemoteAddr()} {
		if a.Network() != "mem" || a.String() != ln.Addr() {
			t.Fatalf("stream address %s/%s, want mem/%s", a.Network(), a, ln.Addr())
		}
	}
	// Streams draw no fabric addresses: the next endpoint is the
	// listener's successor.
	pc, err := m.ListenPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	var ln1, pc1 int
	if _, err := fmt.Sscanf(ln.Addr(), "mem:%d", &ln1); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(pc.LocalAddr(), "mem:%d", &pc1); err != nil {
		t.Fatal(err)
	}
	if pc1 != ln1+1 {
		t.Fatalf("endpoint after one dial is mem:%d, want mem:%d", pc1, ln1+1)
	}
}

// TestMemStreamZeroAllocs is the allocation gate for fabric streams: a
// warm request/response exchange wrapped in SetDeadline(now+10s) and
// SetDeadline(time.Time{}) allocates nothing on either side, deadline
// timers included.
func TestMemStreamZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	cli, srv := memStreamPair(t)
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(srv, buf); err != nil {
				return
			}
			if _, err := srv.Write(buf); err != nil {
				return
			}
		}
	}()
	req, resp := make([]byte, 64), make([]byte, 64)
	exchange := func() {
		if err := cli.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(cli, resp); err != nil {
			t.Fatal(err)
		}
		if err := cli.SetDeadline(time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		exchange()
	}
	if avg := testing.AllocsPerRun(1000, exchange); avg != 0 {
		t.Errorf("stream exchange allocates %.3f allocs/op, want 0", avg)
	}
}

// TestNetPacketZeroAllocs is the allocation gate for the Net datagram
// path: once the address caches are warm, a Write → ReadFrom →
// WriteTo → Read cycle allocates nothing.
func TestNetPacketZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	srv, err := Net{}.ListenPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Net{}.DialPacket(srv.LocalAddr(), NoLink)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	msg, buf, want := []byte("inquiry"), make([]byte, 64), cli.LocalAddr()
	cycle := func() {
		if _, err := cli.Write(msg); err != nil {
			t.Fatal(err)
		}
		n, from, err := srv.ReadFrom(buf)
		if err != nil || from != want {
			t.Fatalf("ReadFrom: from %q, err %v", from, err)
		}
		if _, err := srv.WriteTo(buf[:n], from); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Errorf("datagram cycle allocates %.3f allocs/op, want 0", avg)
	}
}
