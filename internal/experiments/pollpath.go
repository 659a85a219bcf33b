package experiments

import (
	"time"

	"finelb/internal/cluster"
	"finelb/internal/core"
	"finelb/internal/transport"
)

// PollPath is the poll hot-path throughput benchmark behind the
// zero-alloc rework (DESIGN.md §12): back-to-back poll rounds — encode,
// fan-out, demux, decision, no service access attached — on the
// in-memory fabric, reported as polls/sec (inquiries resolved per
// second). Its BENCH_pollpath.json record is the baseline CI compares
// across commits — a >20% polls/sec drop on the gated cell fails the
// build. The net transport is measurable through the in-package
// BenchmarkPollRoundNet; the CI record stays on mem so the gate is not
// at the mercy of runner socket jitter.
func PollPath(o Options) (*Table, error) {
	rounds := pick(o, 200000, 5000)
	const prime = 200

	t := &Table{
		ID:    "pollpath",
		Title: "Poll hot path: rounds back to back on the in-memory fabric",
		Header: []string{"Config", "Servers", "d", "Rounds",
			"Wall s", "polls/sec", "rounds/sec"},
	}
	for _, cfg := range []struct {
		name       string
		servers, d int
	}{
		{"s8_d2", 8, 2},
		{"s8_d4", 8, 4},
		{"s64_d8", 64, 8},
	} {
		polls, wall, err := pollRounds(o, cfg.servers, cfg.d, prime, rounds)
		if err != nil {
			return nil, err
		}
		t.AddRow(cfg.name, cfg.servers, cfg.d, rounds,
			wall, float64(polls)/wall, float64(rounds)/wall)
		o.progress("pollpath: %s done (%d rounds, %.3g polls/sec)",
			cfg.name, rounds, float64(polls)/wall)
	}
	t.AddNote("polls/sec counts d inquiries per round; mem fabric, contention model off, one driving goroutine")
	return t, nil
}

// pollRounds boots servers answering load inquiries instantly and a
// Poll(d) client on a fresh seeded mem fabric, primes the round pool,
// then times rounds poll rounds. It returns the number of
// inquiries resolved and the wall seconds they took.
func pollRounds(o Options, servers, d, prime, rounds int) (int64, float64, error) {
	// The cell always runs on the mem fabric regardless of o.Transport:
	// a syscall-bound net cell would measure the kernel, not the codecs
	// and fan-out this record gates.
	tr := transport.NewMem(transport.MemConfig{Seed: o.Seed + 1})
	cl, err := cluster.StartCluster(cluster.ExperimentConfig{
		Servers: servers, Clients: 1,
		Policy:          core.NewPoll(d),
		Transport:       tr,
		SlowProb:        -1,
		DirTTL:          time.Hour,
		QuarantineAfter: -1,
		Seed:            o.Seed,
	})
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	c := cl.Clients[0]

	eps := c.Endpoints()
	info := &cluster.AccessInfo{PollRTTs: make([]time.Duration, 0, d)}
	run := func(n int) error {
		for i := 0; i < n; i++ {
			if _, ok, err := c.PollRound(eps, info); err != nil {
				return err
			} else if !ok {
				continue // a silent round costs time but resolves nothing
			}
			info.PollRTTs = info.PollRTTs[:0]
		}
		return nil
	}
	if err := run(prime); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := run(rounds); err != nil {
		return 0, 0, err
	}
	wall := time.Since(start).Seconds()
	return int64(rounds) * int64(d), wall, nil
}
