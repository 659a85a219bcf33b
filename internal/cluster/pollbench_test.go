package cluster

import (
	"fmt"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/transport"
)

// pollBenchCluster boots servers answering load inquiries instantly
// (contention model off) and a Poll(d) client over tr, returning the
// client and its endpoint table. The caller drives PollRound directly,
// so the measured work is exactly one poll round: encode + fan-out +
// demux + decision, with no service access attached.
func pollBenchCluster(b testing.TB, tr transport.Transport, servers, d int) (*Client, []Endpoint) {
	b.Helper()
	dir := NewDirectory(time.Hour)
	for i := 0; i < servers; i++ {
		n, err := StartNode(NodeConfig{
			ID: i, Service: "svc", Directory: dir, SlowProb: -1,
			Transport: tr, Seed: uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = n.Close() })
	}
	c, err := NewClient(ClientConfig{
		Directory: dir, Service: "svc",
		Policy:          core.NewPoll(d),
		QuarantineAfter: -1,
		Transport:       tr,
		Seed:            42,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	return c, c.Endpoints()
}

// benchPollRounds measures poll rounds back to back on one goroutine.
// polls/sec (inquiries resolved per second) is the figure the pollpath
// bench record tracks across commits.
func benchPollRounds(b *testing.B, tr transport.Transport, servers, d int) {
	c, eps := pollBenchCluster(b, tr, servers, d)
	info := &AccessInfo{PollRTTs: make([]time.Duration, 0, d)}
	// Prime the round pool, conn pools, and steady-state map sizes.
	for i := 0; i < 100; i++ {
		if _, ok, err := c.PollRound(eps, info); err != nil || !ok {
			b.Fatalf("priming round failed: ok=%v err=%v", ok, err)
		}
		info.PollRTTs = info.PollRTTs[:0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		_, ok, err := c.PollRound(eps, info)
		if err != nil || !ok {
			b.Fatalf("round %d failed: ok=%v err=%v", i, ok, err)
		}
		info.PollRTTs = info.PollRTTs[:0]
	}
	b.StopTimer()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*d)/elapsed, "polls/sec")
		b.ReportMetric(float64(b.N)/elapsed, "rounds/sec")
	}
}

// BenchmarkPollRoundMem is the poll hot path on the in-memory fabric:
// no syscalls, so codec, fan-out, and demux costs dominate. This is
// the configuration the CI pollpath record gates.
func BenchmarkPollRoundMem(b *testing.B) {
	for _, cfg := range []struct{ servers, d int }{
		{8, 2}, {8, 4}, {64, 8},
	} {
		b.Run(fmt.Sprintf("s%d_d%d", cfg.servers, cfg.d), func(b *testing.B) {
			benchPollRounds(b, transport.NewMem(transport.MemConfig{Seed: 1}), cfg.servers, cfg.d)
		})
	}
}

// benchPollRoundsParallel drives concurrent poll rounds from GOMAXPROCS
// goroutines against one client, the shape the experiment driver's
// access goroutines produce under open-loop load.
func benchPollRoundsParallel(b *testing.B, tr transport.Transport, servers, d int) {
	c, eps := pollBenchCluster(b, tr, servers, d)
	info := &AccessInfo{}
	for i := 0; i < 100; i++ {
		if _, ok, err := c.PollRound(eps, info); err != nil || !ok {
			b.Fatalf("priming round failed: ok=%v err=%v", ok, err)
		}
		info.PollRTTs = info.PollRTTs[:0]
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	b.RunParallel(func(pb *testing.PB) {
		local := &AccessInfo{PollRTTs: make([]time.Duration, 0, d)}
		for pb.Next() {
			if _, ok, err := c.PollRound(eps, local); err != nil || !ok {
				b.Fatalf("parallel round failed: ok=%v err=%v", ok, err)
			}
			local.PollRTTs = local.PollRTTs[:0]
		}
	})
	b.StopTimer()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*d)/elapsed, "polls/sec")
	}
}

// BenchmarkPollRoundMemParallel is the concurrent-throughput form of
// the mem benchmark.
func BenchmarkPollRoundMemParallel(b *testing.B) {
	for _, cfg := range []struct{ servers, d int }{
		{8, 4}, {64, 8},
	} {
		b.Run(fmt.Sprintf("s%d_d%d", cfg.servers, cfg.d), func(b *testing.B) {
			benchPollRoundsParallel(b, transport.NewMem(transport.MemConfig{Seed: 1}), cfg.servers, cfg.d)
		})
	}
}

// BenchmarkPollRoundNet is the same round over real loopback UDP
// sockets — the paper's Figure 6 conditions, syscall costs included.
func BenchmarkPollRoundNet(b *testing.B) {
	if testing.Short() {
		b.Skip("loopback sockets in -short mode")
	}
	for _, cfg := range []struct{ servers, d int }{
		{8, 4},
	} {
		b.Run(fmt.Sprintf("s%d_d%d", cfg.servers, cfg.d), func(b *testing.B) {
			benchPollRounds(b, transport.Net{}, cfg.servers, cfg.d)
		})
	}
}
