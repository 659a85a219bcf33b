// Package obs is the repository's internal observability layer: a
// lightweight, allocation-conscious metrics registry (counters, gauges,
// fixed-bucket histograms). Both execution substrates — the
// discrete-event simulator and the socket/in-memory prototype — record
// the same metric catalog (RunMetrics) through it, so anything inside a
// run (queue-length peaks, poll round trips, discard decisions,
// quarantines) can be asserted and regression-tested, not just
// end-of-run aggregates.
//
// Hot-path operations (Counter.Add, Gauge.Add, Histogram.Observe) are
// lock-free atomics with zero allocation; registration happens once at
// run setup. The prototype, whose nodes and clients share a registry
// across goroutines, updates them live. The simulator is one goroutine,
// so it tallies into plain fields and publishes once at the end of a
// run: counters through Add, gauges through Set, and histograms through
// Fold, whose buckets match Observe's because both index them with
// BucketIndex. A Snapshot freezes every metric into a sorted,
// JSON-marshalable form with two digests: Digest covers everything,
// DeterministicDigest covers only the values that are a pure function
// of the run's seed and spec (counters, gauge end values) so identical
// seeded runs can be compared bit for bit even though wall-clock-valued
// metrics (latency histograms, gauge high-waters) differ run to run.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric types in snapshots.
type Kind string

// Metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically non-decreasing count. Add saturates at
// math.MaxInt64 instead of wrapping: a counter that has been running
// for years must never appear to jump negative.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by delta (negative deltas are ignored —
// counters only go up). On overflow the counter saturates at
// math.MaxInt64.
//
//lint:noalloc
func (c *Counter) Add(delta int64) {
	if delta <= 0 {
		return
	}
	for {
		old := c.v.Load()
		next := old + delta
		if next < old { // overflow past MaxInt64
			next = math.MaxInt64
		}
		if c.v.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
//
//lint:noalloc
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (queue depth, busy workers) that also
// tracks its high-water mark, because a peak is often the interesting
// part of a level and sampling cannot catch it.
type Gauge struct {
	v    atomic.Int64
	high atomic.Int64
}

// Set replaces the gauge value.
//
//lint:noalloc
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.raiseHigh(v)
}

// Add moves the gauge by delta (either sign).
//
//lint:noalloc
func (g *Gauge) Add(delta int64) {
	v := g.v.Add(delta)
	g.raiseHigh(v)
}

//
//lint:noalloc
func (g *Gauge) raiseHigh(v int64) {
	for {
		h := g.high.Load()
		if v <= h || g.high.CompareAndSwap(h, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// High returns the high-water mark (the largest value the gauge has
// held; 0 for a gauge that never rose above zero).
func (g *Gauge) High() int64 { return g.high.Load() }

// Histogram is a fixed-bucket histogram: observations are counted into
// the first bucket whose upper bound is >= the value, with an implicit
// +Inf bucket at the end, plus a running sum and count. Bounds are
// fixed at registration.
type Histogram struct {
	bounds []float64      // strictly increasing upper bounds
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// LatencyBuckets is the default bucket layout for second-valued
// latency histograms: 100 µs to 10 s in a 1-2.5-5 progression, wide
// enough for both the simulator's sub-millisecond polls and degraded
// prototype runs waiting out retry backoffs.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

func newHistogram(bounds []float64) (*Histogram, error) {
	if len(bounds) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("obs: histogram bounds not strictly increasing at %d (%v <= %v)",
				i, bounds[i], bounds[i-1])
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}, nil
}

// Observe records one value.
//
//lint:noalloc
func (h *Histogram) Observe(x float64) {
	h.counts[BucketIndex(h.bounds, x)].Add(1)
	h.count.Add(1)
	h.addSum(x)
}

// BucketIndex returns the bucket a histogram with these bounds counts x
// into: the index of the first bound >= x, or len(bounds) for the +Inf
// bucket. A recorder that tallies plain counts with it and publishes
// them through Fold fills exactly the buckets Observe would.
//
//lint:noalloc
func BucketIndex(bounds []float64, x float64) int {
	// Binary search; small bound sets make this a handful of
	// comparisons, no allocation.
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if bounds[mid] >= x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Fold adds plain per-bucket counts, indexed as BucketIndex numbers
// them (len(bounds)+1 entries, the last the +Inf bucket), and the sum
// of the values they count. Folding the tallies of a series of values
// into an empty histogram leaves it bit-identical to observing them one
// by one, provided sum was accumulated in observation order.
func (h *Histogram) Fold(counts []int64, sum float64) {
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("obs: folding %d bucket counts into a histogram of %d buckets", len(counts), len(h.counts)))
	}
	var n int64
	for i, c := range counts {
		h.counts[i].Add(c)
		n += c
	}
	h.count.Add(n)
	h.addSum(sum)
}

// addSum adds x to the running sum.
//
//lint:noalloc
func (h *Histogram) addSum(x float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCount returns the count in bucket i, where i == len(bounds)
// addresses the +Inf bucket.
func (h *Histogram) BucketCount(i int) int64 { return h.counts[i].Load() }

// metric is one registered metric with its metadata.
type metric struct {
	name   string
	kind   Kind
	timing bool
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Opt tags a metric at registration.
type Opt func(*metric)

// Timing marks a metric whose values depend on wall-clock scheduling
// (latency histograms, anything driven by real timers). Timing metrics
// are excluded from Snapshot.DeterministicDigest, which covers only
// values that are a pure function of a run's seed and spec.
func Timing() Opt { return func(m *metric) { m.timing = true } }

// Registry holds named metrics. Registration is idempotent: asking for
// an existing name returns the existing metric, so every component of a
// run can resolve the shared catalog independently. A name registered
// as two different kinds panics — that is a programming error, not a
// runtime condition.
type Registry struct {
	//lint:guards by
	mu sync.Mutex
	by map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{by: make(map[string]*metric)}
}

// lookupLocked resolves an existing metric; caller holds r.mu.
func (r *Registry) lookupLocked(name string, kind Kind) (*metric, bool) {
	m, ok := r.by[name]
	if !ok {
		return nil, false
	}
	if m.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, m.kind, kind))
	}
	return m, true
}

// Counter registers (or returns) the counter with this name.
func (r *Registry) Counter(name string, opts ...Opt) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookupLocked(name, KindCounter); ok {
		return m.c
	}
	m := &metric{name: name, kind: KindCounter, c: &Counter{}}
	for _, o := range opts {
		o(m)
	}
	r.by[name] = m
	return m.c
}

// Gauge registers (or returns) the gauge with this name.
func (r *Registry) Gauge(name string, opts ...Opt) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookupLocked(name, KindGauge); ok {
		return m.g
	}
	m := &metric{name: name, kind: KindGauge, g: &Gauge{}}
	for _, o := range opts {
		o(m)
	}
	r.by[name] = m
	return m.g
}

// Histogram registers (or returns) the histogram with this name. The
// bounds of an existing histogram must match; a mismatch panics, since
// silently merging differently-bucketed histograms would corrupt data.
func (r *Registry) Histogram(name string, bounds []float64, opts ...Opt) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.lookupLocked(name, KindHistogram); ok {
		if len(m.h.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with %d bounds, has %d",
				name, len(bounds), len(m.h.bounds)))
		}
		for i, b := range bounds {
			if m.h.bounds[i] != b {
				panic(fmt.Sprintf("obs: histogram %q re-registered with different bound %d", name, i))
			}
		}
		return m.h
	}
	h, err := newHistogram(bounds)
	if err != nil {
		panic(err.Error())
	}
	m := &metric{name: name, kind: KindHistogram, h: h}
	for _, o := range opts {
		o(m)
	}
	r.by[name] = m
	return m.h
}

// Names returns the registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.by))
	for n := range r.by {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
