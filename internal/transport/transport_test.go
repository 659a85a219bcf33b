package transport

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"
)

// both runs a subtest against each transport implementation.
func both(t *testing.T, f func(t *testing.T, tr Transport)) {
	t.Run("net", func(t *testing.T) { f(t, Net{}) })
	t.Run("mem", func(t *testing.T) { f(t, NewMem(MemConfig{Seed: 1})) })
}

func TestPacketRoundTrip(t *testing.T) {
	both(t, func(t *testing.T, tr Transport) {
		srv, err := tr.ListenPacket()
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cli, err := tr.DialPacket(srv.LocalAddr(), NoLink)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()

		if _, err := cli.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n, from, err := srv.ReadFrom(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != "ping" {
			t.Fatalf("server got %q", buf[:n])
		}
		if from != cli.LocalAddr() {
			t.Fatalf("from = %q, want %q", from, cli.LocalAddr())
		}
		if _, err := srv.WriteTo([]byte("pong"), from); err != nil {
			t.Fatal(err)
		}
		n, err = cli.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != "pong" {
			t.Fatalf("client got %q", buf[:n])
		}
	})
}

func TestStreamRoundTrip(t *testing.T) {
	both(t, func(t *testing.T, tr Transport) {
		ln, err := tr.Listen()
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			buf := make([]byte, 64)
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			c.Write(append([]byte("echo:"), buf[:n]...))
		}()
		c, err := tr.Dial(ln.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write([]byte("hello")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		n, err := c.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf[:n]) != "echo:hello" {
			t.Fatalf("got %q", buf[:n])
		}
	})
}

func TestStreamDeadline(t *testing.T) {
	both(t, func(t *testing.T, tr Transport) {
		ln, err := tr.Listen()
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Hold the connection open, never answer.
			defer c.Close()
			time.Sleep(200 * time.Millisecond)
		}()
		c, err := tr.Dial(ln.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.SetDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		if _, err := c.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read past deadline: err = %v", err)
		}
	})
}

func TestPacketReadDeadline(t *testing.T) {
	both(t, func(t *testing.T, tr Transport) {
		pc, err := tr.ListenPacket()
		if err != nil {
			t.Fatal(err)
		}
		defer pc.Close()
		if err := pc.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8)
		start := time.Now()
		_, _, err = pc.ReadFrom(buf)
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("err = %v, want deadline exceeded", err)
		}
		if time.Since(start) > time.Second {
			t.Fatalf("deadline took %v", time.Since(start))
		}
	})
}

func TestCloseUnblocksReads(t *testing.T) {
	both(t, func(t *testing.T, tr Transport) {
		pc, err := tr.ListenPacket()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			buf := make([]byte, 8)
			_, _, err := pc.ReadFrom(buf)
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		pc.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("read succeeded after close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("read not unblocked by close")
		}
	})
}

func TestMemDialRefusedWithoutListener(t *testing.T) {
	m := NewMem(MemConfig{Seed: 1})
	if _, err := m.Dial("mem:999", 100*time.Millisecond); err == nil {
		t.Fatal("dial to unknown address succeeded")
	}
	ln, err := m.Listen()
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	ln.Close()
	if _, err := m.Dial(addr, 100*time.Millisecond); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
}

func TestMemWriteToUnknownAddrDrops(t *testing.T) {
	m := NewMem(MemConfig{Seed: 1})
	pc, err := m.ListenPacket()
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	// UDP semantics: sends to dead addresses succeed and vanish.
	if _, err := pc.WriteTo([]byte("x"), "mem:999"); err != nil {
		t.Fatalf("WriteTo unknown addr: %v", err)
	}
}

func TestMemFabricsAreIsolated(t *testing.T) {
	m1 := NewMem(MemConfig{Seed: 1})
	m2 := NewMem(MemConfig{Seed: 1})
	srv, _ := m1.ListenPacket()
	defer srv.Close()
	cli, _ := m2.DialPacket(srv.LocalAddr(), NoLink)
	defer cli.Close()
	cli.Write([]byte("x")) // same address string, different fabric
	srv.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, _, err := srv.ReadFrom(make([]byte, 8)); err == nil {
		t.Fatal("datagram crossed fabrics")
	}
}

// TestMemLatency checks the ambient latency model delays datagrams.
func TestMemLatency(t *testing.T) {
	const lat = 50 * time.Millisecond
	m := NewMem(MemConfig{Seed: 1, Latency: lat})
	srv, _ := m.ListenPacket()
	defer srv.Close()
	cli, _ := m.DialPacket(srv.LocalAddr(), NoLink)
	defer cli.Close()
	start := time.Now()
	cli.Write([]byte("x"))
	if _, _, err := srv.ReadFrom(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < lat {
		t.Fatalf("delivered in %v, want >= %v", d, lat)
	}
}

// TestMemLossDeterministic replays the same seed and send sequence on
// two fabrics and requires the identical delivery pattern.
func TestMemLossDeterministic(t *testing.T) {
	pattern := func(seed uint64) string {
		m := NewMem(MemConfig{Seed: seed, Loss: 0.5})
		srv, _ := m.ListenPacket()
		defer srv.Close()
		cli, _ := m.DialPacket(srv.LocalAddr(), NoLink)
		defer cli.Close()
		out := ""
		buf := make([]byte, 8)
		for i := 0; i < 64; i++ {
			cli.Write([]byte{byte(i)})
			srv.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
			if _, _, err := srv.ReadFrom(buf); err == nil {
				out += "1"
			} else {
				out += "0"
			}
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	if a != b {
		t.Fatalf("same seed, different delivery:\n%s\n%s", a, b)
	}
	if c := pattern(8); c == a {
		t.Fatalf("different seeds, same delivery pattern %s", a)
	}
}

// TestMemManyEndpoints opens far more endpoints than typical FD
// limits allow, the fabric's reason to exist.
func TestMemManyEndpoints(t *testing.T) {
	m := NewMem(MemConfig{Seed: 1})
	var conns []PacketConn
	for i := 0; i < 5000; i++ {
		pc, err := m.ListenPacket()
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
		conns = append(conns, pc)
	}
	// Spot-check two can still talk.
	a, b := conns[17], conns[4217]
	if _, err := a.WriteTo([]byte("hi"), b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	b.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 8)
	if n, from, err := b.ReadFrom(buf); err != nil || string(buf[:n]) != "hi" || from != a.LocalAddr() {
		t.Fatalf("got %q from %q, err %v", buf[:n], from, err)
	}
	for _, pc := range conns {
		pc.Close()
	}
}

// TestMemInboxOverflowDrops fills an unread endpoint's inbox: it
// queues exactly memInboxCap datagrams, drops the next one as a full
// socket buffer would, and then reads every queued datagram back in
// the order it was sent.
func TestMemInboxOverflowDrops(t *testing.T) {
	m := NewMem(MemConfig{Seed: 1})
	src, _ := m.ListenPacket()
	defer src.Close()
	dst, _ := m.ListenPacket()
	defer dst.Close()
	for i := 0; i <= memInboxCap; i++ {
		if _, err := src.WriteTo([]byte(fmt.Sprint(i)), dst.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 16)
	for i := 0; i < memInboxCap; i++ {
		dst.SetReadDeadline(time.Now().Add(time.Second))
		n, from, err := dst.ReadFrom(buf)
		if err != nil || from != src.LocalAddr() {
			t.Fatalf("datagram %d: from %q, err %v", i, from, err)
		}
		if got := string(buf[:n]); got != fmt.Sprint(i) {
			t.Fatalf("datagram %d read back as %q", i, got)
		}
	}
	dst.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, _, err := dst.ReadFrom(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("datagram past the inbox cap was queued: read %q, err %v", buf[:n], err)
	}
}

func TestMemAddrFormat(t *testing.T) {
	m := NewMem(MemConfig{Seed: 1})
	pc, _ := m.ListenPacket()
	defer pc.Close()
	ln, _ := m.Listen()
	defer ln.Close()
	for _, addr := range []string{pc.LocalAddr(), ln.Addr()} {
		var n int
		if _, err := fmt.Sscanf(addr, "mem:%d", &n); err != nil || n <= 0 {
			t.Fatalf("address %q not in mem:N form", addr)
		}
	}
}
