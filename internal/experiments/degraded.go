package experiments

import (
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/substrate"
	"finelb/internal/workload"
)

// degradedTTL is the prototype directory TTL used for fault runs: short
// enough that crashed nodes expire from the soft state within a run.
const degradedTTL = 500 * time.Millisecond

// Degraded measures the availability mechanisms of §3.1 under a canned
// fault schedule: 2 of 16 nodes crash 40% of the way through the run
// and every load inquiry is subject to 5% loss. Each policy is run
// healthy and degraded on both substrates through the same driver; with
// quarantine, retry and backoff the degraded mean response should stay
// within a small factor of healthy and no accepted access should be
// lost.
func Degraded(o Options) (*Table, error) {
	const servers = 16
	const rho = 0.7
	const lossProb = 0.05
	policies := []core.Policy{
		core.NewRandom(),
		core.NewPollDiscard(2, DiscardThreshold),
		core.NewPollDiscard(3, DiscardThreshold),
	}
	t := &Table{
		ID:     "degraded",
		Title:  "Degraded mode: kill 2 of 16 nodes mid-run, 5% poll loss (Medium-Grain, 70% busy)",
		Header: []string{"Substrate", "Policy", "Healthy(ms)", "Degraded(ms)", "Ratio", "Lost", "Retries"},
	}
	// Medium-Grain keeps the prototype's aggregate access rate a few
	// hundred per second: heavy enough to exercise the fault paths,
	// light enough that one shared CPU never becomes the bottleneck
	// (Fine-Grain at this scale measures host contention, not policy).
	w := workload.MediumGrain().ScaledTo(servers, rho)

	// Simulator cells run identical arrival/service draws with and
	// without the schedule, so the ratio isolates the faults. Prototype
	// cells use real sockets, so crashed nodes also produce connection
	// errors that the retry path must absorb; both prototype runs use
	// the short fault-mode TTL so only the schedule differs.
	simAccesses := pick(o, 100000, 20000)
	simSeconds := float64(simAccesses) * w.Service.Mean() / (float64(servers) * rho)
	protoSeconds := pick(o, 8.0, 2.0)
	matrix := []struct {
		sub      substrate.Substrate
		accesses int
		killAt   time.Duration
		dirTTL   time.Duration
	}{
		{substrate.Sim{}, simAccesses,
			time.Duration(0.4 * simSeconds * float64(time.Second)), 0},
		{substrate.Proto{Transport: o.Transport}, protoAccesses(w, servers, rho, protoSeconds),
			time.Duration(0.4 * protoSeconds * float64(time.Second)), degradedTTL},
	}
	for _, m := range matrix {
		sched := faults.DegradedDemo(servers, 2, m.killAt, lossProb, o.Seed+1)
		for _, p := range policies {
			run := func(mode string, sched *faults.Schedule) (*substrate.RunResult, error) {
				return runCell(o, t.ID, m.sub, p.String()+" "+mode, substrate.RunSpec{
					Servers: servers, Clients: 6,
					Workload: w, Policy: p,
					Accesses: m.accesses, Seed: o.Seed,
					Faults: sched, DirTTL: m.dirTTL,
				})
			}
			healthy, err := run("healthy", nil)
			if err != nil {
				return nil, err
			}
			degraded, err := run("degraded", sched)
			if err != nil {
				return nil, err
			}
			hm, dm := healthy.MeanResponse*1e3, degraded.MeanResponse*1e3
			t.AddRow(m.sub.Name(), p.String(), hm, dm, dm/hm, degraded.Lost, degraded.Retries)
		}
	}

	t.AddNote("after the crash the 14 survivors run at %.0f%% busy; quarantine (after %d silent polls) keeps the dead nodes out of poll sets until soft state expires",
		100*rho*float64(servers)/float64(servers-2), faults.DefaultQuarantineAfter)
	t.AddNote("Lost counts accesses that produced no response despite retries; polling policies should lose none")
	return t, nil
}
