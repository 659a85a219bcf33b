package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"
)

// procSample is a snapshot of the process counters a measured window
// is bracketed with.
type procSample struct {
	at         time.Time
	user, sys  time.Duration
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{
		at:         time.Now(),
		user:       time.Duration(ru.Utime.Nano()),
		sys:        time.Duration(ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
	}
}

// procDelta is what the process spent between two samples.
type procDelta struct {
	wall, user, sys time.Duration
	mallocs, bytes  uint64
	gcs             uint32
	pause           time.Duration
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:    b.at.Sub(a.at),
		user:    b.user - a.user,
		sys:     b.sys - a.sys,
		mallocs: b.mallocs - a.mallocs,
		bytes:   b.totalAlloc - a.totalAlloc,
		gcs:     b.numGC - a.numGC,
		pause:   time.Duration(b.pauseNs - a.pauseNs),
	}
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// cpuTime is the user plus system CPU time of the process
// (syscall.RUSAGE_SELF) or of the calling thread (rusageThread).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(who, &ru) // cannot fail for these two
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// procMetrics are the per-layer proc.* metrics of a window of ops
// operations.
func procMetrics(d procDelta, ops int64, m metrics) {
	n := float64(ops)
	m.set("proc.allocs_per_op", ratio(float64(d.mallocs), n))
	m.set("proc.bytes_per_op", ratio(float64(d.bytes), n))
	m.set("proc.gc_per_kop", ratio(float64(d.gcs), n/1000))
	m.set("proc.gc_pause_ms", float64(d.pause)/float64(time.Millisecond))
	m.set("proc.user_cpu_us_per_op", ratio(us(d.user), n))
	m.set("proc.sys_cpu_us_per_op", ratio(us(d.sys), n))
}

// openFDs counts the process's open file descriptors.
func openFDs() (int, error) {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, err
	}
	return len(ents) - 1, nil // ReadDir's own descriptor is listed too
}

// baseline is the process state a torn-down workload must return to.
type baseline struct {
	goroutines int
	fds        int // -1 when not checked
}

func takeBaseline(checkFDs bool) (baseline, error) {
	b := baseline{goroutines: runtime.NumGoroutine(), fds: -1}
	if checkFDs {
		// The runtime opens its network poller's descriptors on first
		// socket use and keeps them; open them before counting.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return b, fmt.Errorf("initialising the network poller: %w", err)
		}
		ln.Close()
		n, err := openFDs()
		if err != nil {
			return b, fmt.Errorf("counting open files: %w", err)
		}
		b.fds = n
	}
	return b, nil
}

// checkTeardown waits up to two seconds for goroutines (and, when
// tracked, file descriptors) to fall back to the baseline; exits are
// asynchronous after Close returns for connection goroutines that only
// notice a closed peer on their next read.
func (b baseline) checkTeardown() error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		g := runtime.NumGoroutine()
		fds := -1
		if b.fds >= 0 {
			n, err := openFDs()
			if err != nil {
				return fmt.Errorf("counting open files: %w", err)
			}
			fds = n
		}
		if g <= b.goroutines && fds <= b.fds {
			return nil
		}
		if time.Now().After(deadline) {
			if g > b.goroutines {
				return fmt.Errorf("teardown: %d goroutines still running, baseline %d", g, b.goroutines)
			}
			return fmt.Errorf("teardown: %d files still open, baseline %d: %v", fds, b.fds, fdTargets())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fdTargets lists what the open descriptors point at, for a leak report.
func fdTargets() []string {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		if t, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil {
			out = append(out, e.Name()+"->"+t)
		}
	}
	return out
}
