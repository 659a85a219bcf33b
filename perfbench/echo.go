package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"finelb/internal/transport"
)

// echoRounds is the ping-pong count per echo measurement.
const echoRounds = 2000

// echoMetrics measures the wire floor of a transport: a datagram and a
// stream echo ping-pong through its public seam.
func echoMetrics(tr transport.Transport, m metrics) error {
	dg, err := datagramEcho(tr, echoRounds)
	if err != nil {
		return fmt.Errorf("datagram: %w", err)
	}
	st, err := streamEcho(tr, echoRounds)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	m.set("transport.dgram_rtt_us_p50", summarize(dg).pct(50))
	m.set("transport.stream_rtt_us_p50", summarize(st).pct(50))
	return nil
}

// datagramEcho times n round trips between a DialPacket client and a
// ListenPacket server that echoes every datagram to its sender.
func datagramEcho(tr transport.Transport, n int) ([]float64, error) {
	srv, err := tr.ListenPacket()
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for {
			k, from, err := srv.ReadFrom(buf)
			if err != nil {
				return // closed
			}
			if _, err := srv.WriteTo(buf[:k], from); err != nil {
				return
			}
		}
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	cli, err := tr.DialPacket(srv.LocalAddr(), transport.NoLink)
	if err != nil {
		return nil, err
	}
	defer cli.Close()
	msg := []byte("perfbench-echo-16")
	buf := make([]byte, 64)
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if err := cli.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := cli.Write(msg); err != nil {
			return nil, err
		}
		k, err := cli.Read(buf)
		if err != nil {
			return nil, err
		}
		rtts = append(rtts, us(time.Since(t0)))
		if string(buf[:k]) != string(msg) {
			return nil, fmt.Errorf("echoed %q", buf[:k])
		}
	}
	return rtts, nil
}

// streamEcho times n round trips of a fixed-size message over one
// Dial/Listen stream whose server copies everything back.
func streamEcho(tr transport.Transport, n int) ([]float64, error) {
	ln, err := tr.Listen()
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		// A plain loop rather than io.Copy: on TCP, io.Copy splices
		// through a cached pipe pair that would outlive the test.
		buf := make([]byte, 64)
		for {
			k, err := c.Read(buf)
			if err != nil {
				return // the client closed
			}
			if _, err := c.Write(buf[:k]); err != nil {
				return
			}
		}
	}()
	cli, err := tr.Dial(ln.Addr(), time.Second)
	if err != nil {
		ln.Close()
		<-done
		return nil, err
	}
	rtts, err := pingPong(cli, n)
	cli.Close()
	ln.Close()
	<-done
	return rtts, err
}

func pingPong(c net.Conn, n int) ([]float64, error) {
	msg := []byte("perfbench-echo-16")
	buf := make([]byte, len(msg))
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if err := c.SetDeadline(time.Now().Add(time.Second)); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := c.Write(msg); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			return nil, err
		}
		rtts = append(rtts, us(time.Since(t0)))
		if string(buf) != string(msg) {
			return nil, errors.New("stream echo mismatch")
		}
	}
	return rtts, nil
}
