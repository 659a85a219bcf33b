package experiments

import (
	"time"

	"finelb/internal/core"
	"finelb/internal/substrate"
	"finelb/internal/workload"
)

// SimScale is the hot-path throughput benchmark behind the O(10k)
// scale-out (DESIGN.md §10): one simulator run per policy at a cluster
// size two orders of magnitude beyond the paper's 16 servers, reporting
// raw event throughput (events/sec) next to the usual response-time
// summary. Its BENCH_simscale.json record is the baseline CI compares
// across commits — a >20% events/sec drop fails the build.
//
// Scale is adjustable: Options.Servers/Accesses (cmd/repro
// -servers/-accesses) override the defaults of 10 000 servers and
// 10 000 000 accesses (-quick: 200 servers, 30 000 accesses).
func SimScale(o Options) (*Table, error) {
	servers := o.Servers
	if servers <= 0 {
		servers = pick(o, 10000, 200)
	}
	accesses := o.Accesses
	if accesses <= 0 {
		accesses = pick(o, 10000000, 30000)
	}
	const load = 0.8
	w := workload.PoissonExp(workload.PoissonExpServiceMean).ScaledTo(servers, load)

	policies := []core.Policy{
		core.NewRandom(),
		core.NewPoll(2),
		core.NewPoll(8),
		core.NewIdeal(),
	}

	t := &Table{
		ID:    "simscale",
		Title: "Simulator hot-path throughput at scale",
		Header: []string{"Policy", "Servers", "Accesses", "Events",
			"Wall s", "events/sec", "Mean ms", "p99 ms"},
	}
	for _, p := range policies {
		start := time.Now()
		res, err := runCell(o, t.ID, substrate.Sim{}, p.String(), substrate.RunSpec{
			Servers:  servers,
			Workload: w,
			Policy:   p,
			Accesses: accesses,
			Seed:     o.Seed,
		})
		if err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		t.AddRow(p.String(), servers, accesses, int64(res.EventsFired),
			wall, float64(res.EventsFired)/wall, res.MeanResponse*1e3, res.P99Response*1e3)
	}
	t.AddNote("busy %.0f%%, poisson/exp workload; events/sec is wall-clock event throughput", load*100)
	return t, nil
}
