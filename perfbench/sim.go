package main

import (
	"fmt"
	"runtime"
	"time"

	"finelb/internal/core"
	"finelb/internal/simcluster"
	"finelb/internal/workload"
)

const (
	simServers = 10000
	simLoad    = 0.9
	// simAccesses is one repetition's size: a whole simcluster.Run, about
	// half a second of wall time on a 2-core x86 box.
	simAccesses = 100000
	// simSetupAccesses sizes the set-up run: small enough that building
	// the 10,000-server state dominates it.
	simSetupAccesses = 1000
)

// simDigest is what a simulation must reproduce exactly from its seed.
type simDigest struct {
	Events  uint64
	MeanSec float64
	P99Sec  float64
}

// refSeed and refDigest are a known answer: simcluster.Run of simConfig
// with refAccesses accesses and seed refSeed produced refDigest when
// this benchmark was written. A change to the simulator's semantics
// shows here before any speed is compared.
const (
	refSeed     = 1
	refAccesses = 20000
)

var refDigest = simDigest{Events: 160000, MeanSec: 0.0037508047467222087, P99Sec: 0.009103233169999989}

func simConfig(seed uint64, accesses int) simcluster.Config {
	return simcluster.Config{
		Servers:  simServers,
		Workload: workload.FineGrain().ScaledTo(simServers, simLoad),
		Policy:   core.NewPoll(pollSize),
		Accesses: accesses,
		Seed:     seed,
	}
}

func simulate(seed uint64, accesses int) (*simcluster.Result, simDigest, error) {
	res, err := simcluster.Run(simConfig(seed, accesses))
	if err != nil {
		return nil, simDigest{}, err
	}
	d := simDigest{Events: res.EventsFired, MeanSec: res.Response.Mean(), P99Sec: res.Response.Percentile(0.99)}
	return res, d, nil
}

// simRep is one timed repetition.
type simRep struct {
	wall, cpu time.Duration // cpu: the simulating thread's own CPU time
	mallocs   uint64
	events    uint64
}

// timeRep runs one repetition on a locked thread, so the thread's CPU
// time is the repetition's.
func timeRep(seed uint64) (simRep, *simcluster.Result, simDigest, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0, c0 := time.Now(), cpuTime(rusageThread)
	res, dg, err := simulate(seed, simAccesses)
	c1, t1 := cpuTime(rusageThread), time.Now()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return simRep{}, nil, dg, err
	}
	return simRep{wall: t1.Sub(t0), cpu: c1 - c0, mallocs: ms1.Mallocs - ms0.Mallocs, events: res.EventsFired}, res, dg, nil
}

// runSim is sim_fine_10k: simcluster.Run at 10,000 servers under the
// Fine-Grain trace workload at 90% load, poll size 3, repeated for the
// run's length. Every repetition simulates the same seeded input and
// must reproduce the first one's digest bit for bit.
func runSim(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	for i := 0; i < setupReps; i++ {
		runtime.GC() // as in setUp
		t0 := time.Now()
		if _, _, err := simulate(cfg.seed, simSetupAccesses); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	_, ref, err := simulate(refSeed, refAccesses)
	if err != nil {
		return nil, err
	}
	if ref != refDigest {
		out.problem("reference run (seed %d, %d accesses) digest %+v, recorded %+v", refSeed, refAccesses, ref, refDigest)
	}

	var want *simDigest
	reps := func(d time.Duration, traced *spanLog) ([]simRep, procDelta, float64) {
		var rs []simRep
		before := sampleProc()
		deadline := before.at.Add(d)
		for len(rs) == 0 || time.Now().Before(deadline) {
			t0 := time.Now()
			r, res, dg, err := timeRep(cfg.seed)
			out.attempted++
			if err != nil {
				out.failed++
				out.problem("simulate: %v", err)
				continue
			}
			if traced != nil {
				traced.add(uint64(len(rs)+1), "sim.run", spanNone, t0, t0.Add(r.wall))
			}
			switch {
			case want == nil:
				want = &dg
			case dg != *want:
				out.problem("repetition digest %+v differs from first %+v", dg, *want)
			}
			if res.Lost != 0 || res.Response.N() != simAccesses*9/10 {
				out.problem("run lost %d accesses and measured %d", res.Lost, res.Response.N())
			}
			rs = append(rs, r)
		}
		return rs, before.to(sampleProc()), peakRSSMiB()
	}

	if !cfg.trace {
		rs, pd, peak := reps(cfg.seconds, nil)
		simEndToEnd(out.e2e, rs, pd, peak)
		out.notes = append(out.notes, fmt.Sprintf("measured: %d repetitions of %d accesses, digest %+v", len(rs), simAccesses, *want),
			"repetition throughput per thread CPU second:"+list(repRates(rs, func(r simRep) time.Duration { return r.cpu }), "%.0f"),
			"repetition throughput per wall second:"+list(repRates(rs, func(r simRep) time.Duration { return r.wall }), "%.0f"))
		return out, nil
	}
	rs, pd, _ := reps(cfg.seconds/2, nil)
	log := newSpanLog(time.Now())
	trs, _, _ := reps(cfg.seconds/2, log)
	out.spans = mergeSpans(log)

	m := out.layer
	cpus := make([]float64, len(rs))
	var mallocs uint64
	for i, r := range rs {
		cpus[i] = r.cpu.Seconds()
		mallocs += r.mallocs
	}
	ops := int64(len(rs)) * simAccesses
	events := float64(rs[0].events)
	m.set("latency_p99_us", summarize(perAccessUs(rs)).pct(99))
	m.set("sim.events_per_access", events/simAccesses)
	m.set("sim.events_per_s", events/median(cpus))
	m.set("sim.run_s", median(cpus))
	m.set("sim.allocs_per_access", float64(mallocs)/float64(ops))
	procMetrics(pd, ops, m)
	m.set("bench.trace_overhead", ratio(simThroughput(trs), simThroughput(rs)))
	out.notes = append(out.notes, fmt.Sprintf("untraced: %d repetitions, traced: %d repetitions of %d accesses", len(rs), len(trs), simAccesses))
	return out, nil
}

func repRates(rs []simRep, t func(simRep) time.Duration) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = simAccesses / t(r).Seconds()
	}
	return out
}

// perAccessUs is each repetition's thread CPU time per simulated access.
func perAccessUs(rs []simRep) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = us(r.cpu) / simAccesses
	}
	return out
}

// simThroughput is simulated accesses per second of the simulating
// thread's CPU time, for the median repetition.
func simThroughput(rs []simRep) float64 {
	return 1e6 / median(perAccessUs(rs))
}

// simEndToEnd fills the end-to-end set for the simulator. Its
// "access" is one simulated access, and its time is the simulating
// thread's CPU time: on a shared virtual machine, wall time also counts
// the time the hypervisor gave the CPU to someone else.
func simEndToEnd(m metrics, rs []simRep, pd procDelta, peak float64) {
	var total time.Duration
	for _, r := range rs {
		total += r.cpu
	}
	ops := float64(len(rs)) * simAccesses
	m.set("throughput_per_s", simThroughput(rs))
	m.set("latency_p50_us", median(perAccessUs(rs)))
	m.set("latency_mean_us", us(total)/ops)
	m.set("cpu_us_per_op", us(pd.user+pd.sys)/ops)
	m.set("mem_peak_mib", peak)
}
