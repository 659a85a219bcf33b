package experiments

import (
	"fmt"
	"time"

	"finelb/internal/core"
	"finelb/internal/membership"
	"finelb/internal/stats"
	"finelb/internal/substrate"
	"finelb/internal/workload"
)

// elasticServers is the initial pool of the elastic experiment; the
// autoscaler may shrink to elasticMin overnight and grow to elasticMax
// at the diurnal peak.
const (
	elasticServers = 4
	elasticMin     = 2
	elasticMax     = 10
	elasticRho     = 0.7 // average per-server load at the *initial* pool size
	elasticAmp     = 0.8 // diurnal swing: trough 0.2x, peak 1.8x the average rate
)

// elasticScaler builds the load-threshold policy for a run that lasts
// runSeconds. Cooldowns and the sampling interval scale with the run
// (one diurnal period) so the sim's long day and the prototype's
// compressed one produce the same number of scaling opportunities.
func elasticScaler(runSeconds float64) *membership.AutoscalerConfig {
	period := time.Duration(runSeconds * float64(time.Second))
	return &membership.AutoscalerConfig{
		Min: elasticMin, Max: elasticMax,
		ScaleUpAt:         3,
		ScaleDownAt:       0.75,
		ScaleUpCooldown:   period / 24,
		ScaleDownCooldown: period / 12,
		Interval:          period / 240,
	}
}

// Elastic demonstrates the membership seam end to end: an open-loop
// diurnal arrival trace (trough at the start, peak mid-run) drives the
// shared load-threshold autoscaler, which grows the pool for the day
// and shrinks it back for the night. Each cell runs the same trace with
// a fixed pool and with the autoscaler; the fixed pool at the initial
// size is overloaded through the peak, while the elastic pool tracks
// the load at the cost of a bounded number of membership changes.
func Elastic(o Options) (*Table, error) {
	t := &Table{
		ID:    "elastic",
		Title: fmt.Sprintf("Elastic membership: autoscaler on a diurnal trace (%d servers fixed vs [%d,%d] elastic)", elasticServers, elasticMin, elasticMax),
		Header: []string{"Substrate", "Policy", "Mode", "Mean(ms)", "P95(ms)",
			"FinalPool", "PeakPool", "Joins", "Drains", "Lost"},
	}
	base := workload.PoissonExp(workload.PoissonExpServiceMean)
	rate := float64(elasticServers) * elasticRho / base.Service.Mean()

	simSeconds := pick(o, 120.0, 30.0)
	protoSeconds := pick(o, 10.0, 4.0)
	matrix := []struct {
		sub      substrate.Substrate
		seconds  float64
		dirTTL   time.Duration
		policies []core.Policy
	}{
		{substrate.Sim{}, simSeconds, 0,
			[]core.Policy{core.NewRandom(), core.NewPollDiscard(2, DiscardThreshold)}},
		{substrate.Proto{Transport: o.Transport}, protoSeconds, degradedTTL,
			[]core.Policy{core.NewPollDiscard(2, DiscardThreshold)}},
	}
	for _, m := range matrix {
		accesses := int(rate * m.seconds)
		// One diurnal period spans the whole run; apply after ScaledTo so
		// the average rate still matches the demand target.
		w := base.ScaledTo(elasticServers, elasticRho).WithDiurnalArrivals(elasticAmp, m.seconds)
		for _, p := range m.policies {
			for _, mode := range []string{"fixed", "auto"} {
				var as *membership.AutoscalerConfig
				if mode == "auto" {
					as = elasticScaler(m.seconds)
				}
				res, err := runCell(o, t.ID, m.sub, p.String()+" "+mode, substrate.RunSpec{
					Servers: elasticServers, Clients: 6,
					Workload: w, Policy: p,
					Accesses: accesses, Seed: o.Seed,
					Autoscaler: as, DirTTL: m.dirTTL,
				})
				if err != nil {
					return nil, err
				}
				t.AddRow(m.sub.Name(), p.String(), mode,
					res.MeanResponse*1e3, res.P95Response*1e3,
					res.FinalPool, res.PeakPool, res.Joins, res.Drains, res.Lost)
			}
		}
	}
	t.AddNote("diurnal trace: sinusoidal arrival rate, trough %.1fx to peak %.1fx the average over one run-long period; the fixed pool of %d is overloaded at the peak (%.0f%% busy)",
		1-elasticAmp, 1+elasticAmp, elasticServers, 100*elasticRho*(1+elasticAmp))
	t.AddNote("auto rows: pool grows toward the peak and shrinks after it; planned drains lose no accepted work (Lost counts unanswered accesses)")
	return t, nil
}

// hetChurnFactors is the default heterogeneous cluster of the hetchurn
// sweep: 4 fast servers at 3.25x and 12 slow ones at 0.25x, preserving
// the homogeneous total capacity (4*3.25 + 12*0.25 = 16).
func hetChurnFactors() []float64 {
	sf := make([]float64, 16)
	for i := range sf {
		if i < 4 {
			sf[i] = 3.25
		} else {
			sf[i] = 0.25
		}
	}
	return sf
}

// HetChurn probes load-index-driven balancing on a heterogeneous
// cluster (simulation only; server speed is a simulator concept). Total
// capacity matches the homogeneous baseline, but 0.25x servers make the
// paper's un-normalized load index misleading, and the Luo/Zubeldia
// instability appears at small poll sizes: with 12 of 16 servers slow,
// a 2-sample often contains only slow servers, so placement alone
// forces more demand onto them than they can serve — the cluster is
// unstable even though capacity is ample. Large poll sizes fix the
// placement but pay for it in poll latency (the run models the §3.2
// variable poll cost the prototype measures), so on a fine-grain
// service the mean-response row is non-monotone in poll size, with an
// interior optimum. The churn scenario drains one fast node mid-run and
// rejoins it later, shrinking the capacity margin the het cluster has
// to absorb mistakes with.
func HetChurn(o Options) (*Table, error) {
	const servers = 16
	const rho = 0.72
	accesses := pick(o, 120000, 20000)
	w := workload.FineGrain().ScaledTo(servers, rho)
	runSeconds := float64(accesses) * w.Service.Mean() / (float64(servers) * rho)
	// The §3.2-style poll-cost tail: each poll round trip draws an extra
	// exponential delay, so a d-poll waits for the max of d draws (or
	// the discard threshold). This is what makes information expensive.
	jitter := stats.Exponential{MeanValue: 3e-3}

	sf := o.SpeedFactors
	hetName := "het 4x3.25,12x0.25"
	if sf == nil {
		sf = hetChurnFactors()
	} else {
		hetName = "het (custom)"
	}
	// Drain fast node 0 for the middle third of the run: capacity drops
	// from 16x to 12.75x base (demand 11.52x), so the het cluster rides
	// out the outage near 90% busy.
	churn := &membership.Schedule{Seed: o.Seed, Events: []membership.Event{
		{At: secs(0.30 * runSeconds), Node: 0, Kind: membership.Drain},
		{At: secs(0.35 * runSeconds), Node: 0, Kind: membership.Leave},
		{At: secs(0.65 * runSeconds), Node: 0, Kind: membership.Join},
	}}

	t := &Table{
		ID:     "hetchurn",
		Title:  fmt.Sprintf("Heterogeneous cluster + churn: poll-size sweep, Fine-Grain at %.0f%% busy, 16 servers (simulation)", rho*100),
		Header: []string{"Scenario", "RANDOM(ms)"},
	}
	policies := []core.Policy{core.NewRandom()}
	for _, d := range []int{2, 4, 8, 16} {
		t.Header = append(t.Header, fmt.Sprintf("POLL-%d(ms)", d))
		policies = append(policies, core.NewPollDiscard(d, DiscardThreshold))
	}
	spec := substrate.RunSpec{
		Servers: servers, Workload: w, Accesses: accesses, Seed: o.Seed, PollJitter: jitter,
	}
	het, churned := spec, spec
	het.SpeedFactors = sf
	churned.SpeedFactors, churned.Membership = sf, churn
	rows := []sweepRow{
		{lead: []any{"homogeneous"}, spec: spec},
		{lead: []any{hetName}, spec: het},
		{lead: []any{hetName + " + churn"}, spec: churned},
	}
	if err := sweep(o, substrate.Sim{}, t, rows, policies, meanMs); err != nil {
		return nil, err
	}
	t.AddNote("total capacity is identical in every scenario; only its distribution (and mid-run availability) changes")
	t.AddNote("het rows: a 2-poll samples only 0.25x servers %.0f%% of the time, forcing more demand onto them than they can serve (unstable; grows with run length); the poll-latency tail makes d=16 slower than the interior optimum", 100*(12.0/16)*(11.0/15))
	return t, nil
}

// secs converts seconds to a duration.
func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
