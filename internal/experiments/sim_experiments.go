package experiments

import (
	"fmt"
	"slices"
	"time"

	"finelb/internal/core"
	"finelb/internal/queueing"
	"finelb/internal/substrate"
	"finelb/internal/workload"
)

// paperLoads are the server load levels of Figures 4 and 6.
var paperLoads = []float64{0.5, 0.6, 0.7, 0.8, 0.9}

// Table1 regenerates Table 1: the statistics of the evaluation
// workloads, comparing the synthetic traces against the published
// moments.
func Table1(o Options) (*Table, error) {
	n := pick(o, 400000, 40000)
	t := &Table{
		ID:    "table1",
		Title: "Statistics of evaluation traces (synthetic, matched to published moments)",
		Header: []string{"Workload", "Accesses",
			"ArrivalMean(ms)", "ArrivalStd(ms)", "ServiceMean(ms)", "ServiceStd(ms)",
			"PaperServiceMean(ms)", "PaperServiceStd(ms)", "PaperArrivalStd(ms)"},
	}
	type published struct{ svcMean, svcStd, arrStd float64 }
	pub := map[string]published{
		"Medium-Grain trace": {workload.MediumGrainServiceMean, workload.MediumGrainServiceStd, workload.MediumGrainArrivalStd},
		"Fine-Grain trace":   {workload.FineGrainServiceMean, workload.FineGrainServiceStd, workload.FineGrainArrivalStd},
	}
	for i, w := range []workload.Workload{workload.MediumGrain(), workload.FineGrain()} {
		tr := w.Generate(n, o.Seed+uint64(i))
		st := tr.Stats()
		p := pub[w.Name]
		t.AddRow(w.Name, st.Count,
			st.ArrivalMean*1e3, st.ArrivalStd*1e3, st.ServiceMean*1e3, st.ServiceStd*1e3,
			p.svcMean*1e3, p.svcStd*1e3, p.arrStd*1e3)
		o.progress("table1: %s done", w.Name)
	}
	t.AddNote("native arrival means are reconstructed with CV=%.1f (DESIGN.md §4); arrivals are rescaled per experiment anyway", workload.TraceArrivalCV)
	return t, nil
}

// Figure2 regenerates Figure 2: load-index inaccuracy versus the
// load-information dissemination delay (normalized to mean service
// time), for one server at 90% and 50% busy, with the Equation 1 upper
// bound for Poisson/Exp.
func Figure2(o Options) (*Table, error) {
	delays := []float64{0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50, 100}
	accesses := pick(o, 300000, 40000)
	t := &Table{
		ID:    "figure2",
		Title: "Impact of delay on load index inaccuracy, 1 server (simulation)",
		Header: append([]string{"Busy", "Workload"}, func() []string {
			h := make([]string, len(delays))
			for i, d := range delays {
				h[i] = fmt.Sprintf("d=%gx", d)
			}
			return append(h, "Eq1-bound")
		}()...),
	}
	for _, busy := range []float64{0.9, 0.5} {
		for _, w := range workload.Paper() {
			res, err := runCell(o, t.ID, substrate.Sim{}, pct(busy)+" "+w.Name, substrate.RunSpec{
				Servers: 1, Workload: w.ScaledTo(1, busy), Policy: core.NewRandom(),
				Accesses: accesses, Seed: o.Seed, RecordQueueSeries: true,
			})
			if err != nil {
				return nil, err
			}
			qs := res.QueueSeries[0]
			s := w.Service.Mean()
			warm := res.SimDuration * 0.05
			row := []any{pct(busy), w.Name}
			for _, d := range delays {
				row = append(row, qs.Inaccuracy(d*s, warm, res.SimDuration, s/2))
			}
			if w.Name == "Poisson/Exp" {
				row = append(row, queueing.StalenessUpperBound(busy))
			} else {
				row = append(row, "-")
			}
			t.AddRow(row...)
		}
	}
	t.AddNote("paper: inaccuracy reaches the upper bound (1.33 at 50%%) quickly; at 90%% the error approaches ~3 around delay 10x")
	return t, nil
}

// Figure3 regenerates Figure 3: broadcast policy mean response time
// (normalized to IDEAL) versus mean broadcast interval, 16 servers.
func Figure3(o Options) (*Table, error) {
	intervalsMs := pick(o,
		[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000},
		[]float64{2, 20, 200, 1000})
	accesses := pick(o, 120000, 20000)
	t := &Table{
		ID:     "figure3",
		Title:  "Impact of broadcast frequency with 16 servers (simulation); mean response normalized to IDEAL",
		Header: []string{"Busy", "Workload", "IDEAL(ms)"},
	}
	policies := []core.Policy{core.NewIdeal()}
	for _, ms := range intervalsMs {
		t.Header = append(t.Header, fmt.Sprintf("%gms", ms))
		policies = append(policies, core.NewBroadcast(time.Duration(ms*float64(time.Millisecond))))
	}
	var rows []sweepRow
	for _, busy := range []float64{0.9, 0.5} {
		for _, w := range workload.Paper() {
			rows = append(rows, sweepRow{
				lead: []any{pct(busy), w.Name},
				spec: substrate.RunSpec{Servers: 16, Workload: w.ScaledTo(16, busy), Accesses: accesses, Seed: o.Seed},
			})
		}
	}
	err := sweep(o, substrate.Sim{}, t, rows, policies, func(rs []*substrate.RunResult) []any {
		ideal := rs[0].MeanResponse
		cells := []any{ideal * 1e3}
		for _, r := range rs[1:] {
			cells = append(cells, r.MeanResponse/ideal)
		}
		return cells
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: ~1s intervals are an order of magnitude slower than IDEAL for fine-grain workloads at 90%% busy")
	return t, nil
}

// Figure4 regenerates Figure 4: the poll-size sweep in simulation —
// mean response time (ms) for random, poll sizes 2/3/4/8, and IDEAL on
// 16 servers across server load levels, for all three workloads.
func Figure4(o Options) (*Table, error) {
	accesses := pick(o, 120000, 15000)
	t, err := pollSizeSweep(o, substrate.Sim{}, "figure4",
		"Impact of poll size with 16 servers (simulation), mean response time in ms",
		core.PaperFigurePolicies(),
		pick(o, paperLoads, []float64{0.5, 0.9}),
		func(workload.Workload, float64) int { return accesses })
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: poll size 2 performs close to IDEAL; larger poll sizes add little (and, on the prototype, hurt fine-grain workloads)")
	return t, nil
}

// Upperbound regenerates the Equation 1 validation (E1): the closed
// form 2rho/(1-rho^2) against direct series summation and the simulated
// large-delay inaccuracy.
func Upperbound(o Options) (*Table, error) {
	accesses := pick(o, 200000, 40000)
	t := &Table{
		ID:     "upperbound",
		Title:  "Equation 1: staleness upper bound 2p/(1-p^2) for Poisson/Exp",
		Header: []string{"Busy", "ClosedForm", "SeriesSum", "Simulated(d=100x)"},
	}
	for _, rho := range []float64{0.3, 0.5, 0.7, 0.9} {
		res, err := runCell(o, t.ID, substrate.Sim{}, pct(rho), substrate.RunSpec{
			Servers:  1,
			Workload: workload.PoissonExp(workload.PoissonExpServiceMean).ScaledTo(1, rho),
			Policy:   core.NewRandom(), Accesses: accesses, Seed: o.Seed, RecordQueueSeries: true,
		})
		if err != nil {
			return nil, err
		}
		s := workload.PoissonExpServiceMean
		sim := res.QueueSeries[0].Inaccuracy(100*s, res.SimDuration*0.05, res.SimDuration, s/2)
		t.AddRow(pct(rho),
			queueing.StalenessUpperBound(rho),
			queueing.StalenessUpperBoundSeries(rho, 1e-10),
			sim)
	}
	t.AddNote("the paper quotes the 50%% bound as 1.33")
	return t, nil
}

// Flocking runs ablation A1: the broadcast policy with and without
// client-local load-index correction, isolating the flocking effect the
// paper blames for broadcast's poor staleness behaviour (§2.2).
func Flocking(o Options) (*Table, error) {
	accesses := pick(o, 100000, 20000)
	t := &Table{
		ID:     "flocking",
		Title:  "A1: flocking effect — broadcast with/without local correction (16 servers, 90% busy, ms)",
		Header: []string{"Workload", "Interval", "Plain(ms)", "LocalCorrection(ms)", "Improvement"},
	}
	for _, w := range workload.Paper() {
		for _, interval := range []time.Duration{50 * time.Millisecond, 500 * time.Millisecond} {
			plain := core.NewBroadcast(interval)
			corrected := plain
			corrected.LocalCorrection = true
			row := sweepRow{
				lead: []any{w.Name, interval.String()},
				spec: substrate.RunSpec{Servers: 16, Workload: w.ScaledTo(16, 0.9), Accesses: accesses, Seed: o.Seed},
			}
			err := sweep(o, substrate.Sim{}, t, []sweepRow{row}, []core.Policy{plain, corrected},
				func(rs []*substrate.RunResult) []any {
					imp := 1 - rs[1].MeanResponse/rs[0].MeanResponse
					return append(meanMs(rs), fmt.Sprintf("%.1f%%", imp*100))
				})
			if err != nil {
				return nil, err
			}
		}
	}
	t.AddNote("the paper identifies flocking — all clients rushing the lowest perceived queue between broadcasts — as a major amplifier of staleness")
	return t, nil
}

// SyncAblation runs ablation A2: fixed versus jittered broadcast
// intervals (the paper requires non-fixed intervals to avoid
// self-synchronization, citing Floyd-Jacobson).
func SyncAblation(o Options) (*Table, error) {
	accesses := pick(o, 100000, 20000)
	t := &Table{
		ID:     "syncablation",
		Title:  "A2: broadcast interval jitter — fixed vs jittered (Poisson/Exp 50ms, 16 servers, 90% busy)",
		Header: []string{"Interval", "Fixed(ms)", "Jittered(ms)"},
	}
	spec := substrate.RunSpec{
		Servers:  16,
		Workload: workload.PoissonExp(workload.PoissonExpServiceMean).ScaledTo(16, 0.9),
		Accesses: accesses, Seed: o.Seed,
	}
	for _, interval := range []time.Duration{20 * time.Millisecond, 100 * time.Millisecond, 500 * time.Millisecond} {
		jittered := core.NewBroadcast(interval)
		fixed := jittered
		fixed.BroadcastFixed = true
		row := sweepRow{lead: []any{interval.String()}, spec: spec}
		if err := sweep(o, substrate.Sim{}, t, []sweepRow{row}, []core.Policy{fixed, jittered}, meanMs); err != nil {
			return nil, err
		}
	}
	t.AddNote("all synchronized broadcasts arrive together, so every client's whole table goes stale at once; jitter staggers updates")
	return t, nil
}

// Messages runs ablation A3: the §2.4 scalability argument — counted
// load-information messages for broadcast versus polling as servers,
// clients, and load scale.
func Messages(o Options) (*Table, error) {
	accesses := pick(o, 60000, 15000)
	t := &Table{
		ID:     "messages",
		Title:  "A3: load-information messages per service access (simulation counters)",
		Header: []string{"Servers", "Clients", "Busy", "Broadcast(10ms)/access", "Poll3/access"},
	}
	var rows []sweepRow
	for _, servers := range []int{8, 16, 32} {
		for _, clients := range []int{2, 6} {
			for _, busy := range []float64{0.5, 0.9} {
				rows = append(rows, sweepRow{
					lead: []any{servers, clients, pct(busy)},
					spec: substrate.RunSpec{
						Servers: servers, Clients: clients,
						Workload: workload.PoissonExp(workload.PoissonExpServiceMean).ScaledTo(servers, busy),
						Accesses: accesses, Seed: o.Seed,
					},
				})
			}
		}
	}
	err := sweep(o, substrate.Sim{}, t, rows,
		[]core.Policy{core.NewBroadcast(10 * time.Millisecond), core.NewPoll(3)},
		func(rs []*substrate.RunResult) []any {
			return []any{
				float64(rs[0].LoadMessages) / float64(accesses),
				float64(rs[1].LoadMessages) / float64(accesses),
			}
		})
	if err != nil {
		return nil, err
	}
	t.AddNote("broadcast messages scale with servers x clients x time (independent of load); polling messages are a constant 2 x poll size per access")
	return t, nil
}

// LeastConn runs ablation A4: the modern message-free client-local
// least-connections rule (NGINX/HAProxy "least_conn") against the
// paper's policies. With several independent clients, local counts are
// a coarse load signal; polling sees the real queue.
func LeastConn(o Options) (*Table, error) {
	accesses := pick(o, 100000, 20000)
	policies := []core.Policy{
		core.NewRandom(), core.NewLocalLeast(), core.NewPoll(2), core.NewIdeal(),
	}
	t := &Table{
		ID:     "leastconn",
		Title:  "A4: client-local least-connections vs the paper's policies (16 servers, 90% busy, ms)",
		Header: append([]string{"Workload"}, policyNames(policies)...),
	}
	var rows []sweepRow
	for _, w := range workload.Paper() {
		rows = append(rows, sweepRow{
			lead: []any{w.Name},
			spec: substrate.RunSpec{Servers: 16, Workload: w.ScaledTo(16, 0.9), Accesses: accesses, Seed: o.Seed},
		})
	}
	if err := sweep(o, substrate.Sim{}, t, rows, policies, meanMs); err != nil {
		return nil, err
	}
	t.AddNote("least-conn needs no messages but each client only sees its own 1/6 of the traffic; poll 2 sees true queue lengths")
	return t, nil
}

// Burstiness runs ablation A5: how much each policy's advantage grows
// as arrivals get burstier (Markov-modulated bursts at fixed mean
// rate). Real traces are bursty beyond their marginal CV; this sweeps
// the effect directly.
func Burstiness(o Options) (*Table, error) {
	accesses := pick(o, 100000, 20000)
	bursts := pick(o, []float64{1, 2, 5, 10}, []float64{1, 2, 5})
	policies := []core.Policy{core.NewRandom(), core.NewPoll(2), core.NewIdeal()}
	t := &Table{
		ID:    "burstiness",
		Title: "A5: arrival burstiness sweep (Fine-Grain service, 16 servers, 70% busy, ms)",
		Header: slices.Concat([]string{"Burst"}, policyNames(policies),
			[]string{"random-ideal(ms)", "random/ideal"}),
	}
	base := workload.FineGrain().ScaledTo(16, 0.7)
	var rows []sweepRow
	for _, b := range bursts {
		w := base
		if b > 1 {
			w = base.WithBurstyArrivals(b, 50)
		}
		rows = append(rows, sweepRow{
			lead: []any{fmt.Sprintf("x%g", b)},
			spec: substrate.RunSpec{Servers: 16, Workload: w, Accesses: accesses, Seed: o.Seed},
		})
	}
	err := sweep(o, substrate.Sim{}, t, rows, policies, func(rs []*substrate.RunResult) []any {
		random, ideal := rs[0].MeanResponse*1e3, rs[2].MeanResponse*1e3
		return append(meanMs(rs), random-ideal, random/ideal)
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("moderate burstiness widens the absolute random-to-ideal gap (ms); the ratio narrows because bursts inflate every policy's queueing delay, ideal included")
	t.AddNote("polling stays near ideal throughout: its load information is gathered at access time, so burstiness does not stale it")
	return t, nil
}
