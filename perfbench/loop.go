package main

import (
	"fmt"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// callers is the closed-loop client count of every prototype
	// workload: each caller sends its next access only after the
	// previous one returned.
	callers = 2
	// sliceLen cuts a measured phase into windows. End-to-end figures are
	// medians over windows, so a few seconds of interference from outside
	// the process move a run's figures less than they would move totals.
	sliceLen = time.Second
)

// phase is one closed-loop window: every caller looped for its length.
type phase struct {
	proc       procDelta
	ok, failed int64
	slices     []slice
	sliceDur   time.Duration
	peakRSS    float64 // MiB, read as the phase ends
}

// slice is one sliceLen window of a phase: the latencies (µs) of the
// successful ops that completed in it and the CPU the process used
// during it. Ops completing after the last whole slice are counted but
// not sampled.
type slice struct {
	lat []float64
	cpu time.Duration
}

// latencies merges the samples of every slice.
func (p phase) latencies() []float64 {
	var all []float64
	for _, s := range p.slices {
		all = append(all, s.lat...)
	}
	return all
}

func (p phase) throughput() float64 { return ratio(float64(p.ok), p.proc.wall.Seconds()) }

// run runs one closed-loop phase and counts its operations.
func (o *outcome) run(d time.Duration, op func(caller int) bool) phase {
	p := runPhase(d, op)
	o.attempted += p.ok + p.failed
	o.failed += p.failed
	return p
}

// runPhase runs op closed-loop on `callers` goroutines for d. op
// reports whether the operation succeeded with a correct output; only
// successful operations enter the latency samples.
func runPhase(d time.Duration, op func(caller int) bool) phase {
	n, sl := int(d/sliceLen), sliceLen
	if n == 0 {
		n, sl = 1, d
	}
	before := sampleProc()
	start := before.at
	deadline := start.Add(d)

	// CPU time is sampled at every slice boundary.
	cpuAt := make([]time.Duration, n+1)
	cpuAt[0] = before.user + before.sys
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k <= n; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * sl)))
			cpuAt[k] = cpuTime(syscall.RUSAGE_SELF)
		}
	}()

	type callerState struct {
		byslice    [][]float64
		ok, failed int64
	}
	per := make([]callerState, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := &per[i]
			st.byslice = make([][]float64, n)
			t0 := time.Now()
			for t0.Before(deadline) {
				ok := op(i)
				t1 := time.Now()
				if ok {
					st.ok++
					if k := int(t1.Sub(start) / sl); k < n {
						st.byslice[k] = append(st.byslice[k], us(t1.Sub(t0)))
					}
				} else {
					st.failed++
				}
				t0 = t1
			}
		}(i)
	}
	wg.Wait()
	<-sampled
	out := phase{proc: before.to(sampleProc()), slices: make([]slice, n), sliceDur: sl, peakRSS: peakRSSMiB()}
	for _, st := range per {
		out.ok += st.ok
		out.failed += st.failed
		for k := range out.slices {
			out.slices[k].lat = append(out.slices[k].lat, st.byslice[k]...)
		}
	}
	for k := range out.slices {
		out.slices[k].cpu = cpuAt[k+1] - cpuAt[k]
	}
	return out
}

// sliceFigures are one figure per slice of a phase.
type sliceFigures struct {
	throughput, p50, p99, mean, cpuPerOp []float64
}

func (p phase) figures() sliceFigures {
	var f sliceFigures
	for _, s := range p.slices {
		if len(s.lat) == 0 {
			continue
		}
		sum := summarize(s.lat)
		f.throughput = append(f.throughput, float64(len(s.lat))/p.sliceDur.Seconds())
		f.p50 = append(f.p50, sum.pct(50))
		f.p99 = append(f.p99, sum.pct(99))
		f.mean = append(f.mean, sum.mean())
		f.cpuPerOp = append(f.cpuPerOp, us(s.cpu)/float64(len(s.lat)))
	}
	return f
}

// endToEnd fills the end-to-end metrics of a measured phase: each
// timing is the median of its per-slice values.
func endToEnd(m metrics, p phase) {
	f := p.figures()
	m.set("throughput_per_s", median(f.throughput))
	m.set("latency_p50_us", median(f.p50))
	m.set("latency_mean_us", median(f.mean))
	m.set("cpu_us_per_op", median(f.cpuPerOp))
	m.set("mem_peak_mib", p.peakRSS)
}

// phaseNotes state a phase's totals, its sample count and tail depth,
// and its per-slice figures.
func phaseNotes(label string, p phase) []string {
	s := summarize(p.latencies())
	f := p.figures()
	return []string{
		fmt.Sprintf("%s: %d ops in %.2fs, %d failed; whole-phase p50 %.1f us, p99 %.1f us with %d samples beyond",
			label, p.ok, p.proc.wall.Seconds(), p.failed, s.pct(50), s.pct(99), s.beyond(99)),
		label + " slice throughput (1/s):" + list(f.throughput, "%.0f"),
		label + " slice p50 (us):" + list(f.p50, "%.1f"),
		label + " slice p99 (us):" + list(f.p99, "%.0f"),
		label + " slice mean (us):" + list(f.mean, "%.1f"),
		label + " slice cpu/op (us):" + list(f.cpuPerOp, "%.1f"),
	}
}

func list(xs []float64, format string) string {
	var b strings.Builder
	for _, x := range xs {
		b.WriteByte(' ')
		fmt.Fprintf(&b, format, x)
	}
	return b.String()
}
