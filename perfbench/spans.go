package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. A span's parent is the span of the parent name within
// the same access, so spans recorded on different goroutines (an HTTP
// caller and the handler serving it) still join into one tree.
const (
	spanNone     = ""
	spanAccess   = "access"           // one whole access, as the caller sees it
	spanLookup   = "cluster.lookup"   // Client.Endpoints
	spanPoll     = "cluster.poll"     // Client.PollRound
	spanDispatch = "cluster.dispatch" // Client.AccessNode
	spanHTTP     = "gateway.http"     // HTTP round trip from the caller
	spanServe    = "gateway.serve"    // Gateway.ServeHTTP
)

type span struct {
	access     uint64
	name       string
	parent     string
	start, end time.Duration // since the run's epoch
}

func (s span) dur() time.Duration { return s.end - s.start }

// spanLog holds spans in memory until the run ends. Callers that own a
// log record without contention; a shared log (the HTTP handler's)
// takes the lock.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog(epoch time.Time) *spanLog { return &spanLog{epoch: epoch} }

func (l *spanLog) add(access uint64, name, parent string, start, end time.Time) {
	s := span{access: access, name: name, parent: parent, start: start.Sub(l.epoch), end: end.Sub(l.epoch)}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func mergeSpans(logs ...*spanLog) []span {
	var out []span
	for _, l := range logs {
		l.mu.Lock()
		out = append(out, l.spans...)
		l.mu.Unlock()
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children, in the order of spans.
func selfTimes(spans []span) []time.Duration {
	type key struct {
		access uint64
		name   string
	}
	children := make(map[key][]int)
	for i, s := range spans {
		if s.parent != spanNone {
			k := key{s.access, s.parent}
			children[k] = append(children[k], i)
		}
	}
	out := make([]time.Duration, len(spans))
	var iv [][2]time.Duration
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[key{s.access, s.name}] {
			lo, hi := spans[c].start, spans[c].end
			if lo < s.start {
				lo = s.start
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		out[i] = s.dur() - unionLength(iv)
	}
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end time.Duration
	started := false
	var start time.Duration
	for _, x := range iv {
		switch {
		case !started:
			start, end, started = x[0], x[1], true
		case x[0] > end:
			total += end - start
			start, end = x[0], x[1]
		case x[1] > end:
			end = x[1]
		}
	}
	if started {
		total += end - start
	}
	return total
}

// spanStats collects durations (µs) and self times (µs) by span name.
type spanStats struct {
	dur, self map[string][]float64
}

func collectSpanStats(spans []span) spanStats {
	st := spanStats{dur: make(map[string][]float64), self: make(map[string][]float64)}
	self := selfTimes(spans)
	for i, s := range spans {
		st.dur[s.name] = append(st.dur[s.name], us(s.dur()))
		st.self[s.name] = append(st.self[s.name], us(self[i]))
	}
	return st
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeSpans writes the spans as tab-separated lines
// (access, name, parent, start_ns, end_ns) to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "access\tname\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d\n", s.access, s.name, s.parent, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
