// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload from a seed, checks every output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	perfbench --workload access_net_d3 --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	access_net_d3      Client.Access over real loopback sockets, poll d=3
//	gateway_mem_mixed  HTTP front door on the mem fabric, polled + sticky tenants
//	sim_fine_10k       the discrete-event simulator at 10,000 servers
//
// A failed check prints the result with "correct": false and exits 1;
// a run that cannot start exits 1 without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// metricSpec is one metric's name and unit, as BENCHMARK.json lists it.
type metricSpec struct{ name, unit string }

var (
	endToEndMetrics = []metricSpec{
		{"throughput_per_s", "1/s"}, {"latency_p50_us", "us"}, {"latency_mean_us", "us"}, {"cpu_us_per_op", "us"}, {"mem_peak_mib", "MiB"}, {"setup_s", "s"},
	}
	perLayerMetrics = []metricSpec{
		{"latency_p99_us", "us"},
		{"cluster.lookup_us_p50", "us"}, {"cluster.poll_us_p50", "us"}, {"cluster.poll_us_p99", "us"},
		{"cluster.dispatch_us_p50", "us"}, {"cluster.dispatch_us_p99", "us"}, {"cluster.poll_self_share", "ratio"},
		{"cluster.polls_per_access", "count"}, {"cluster.poll_answered_ratio", "ratio"},
		{"cluster.poll_discarded", "count"}, {"cluster.retries", "count"}, {"cluster.late_answers", "count"},
		{"node.served", "count"}, {"node.inquiries_per_access", "count"}, {"node.overloads", "count"},
		{"node.served_cv", "ratio"}, {"node.load_at_reply_mean", "count"},
		{"transport.dgram_rtt_us_p50", "us"}, {"transport.stream_rtt_us_p50", "us"},
		{"gateway.serve_us_p50", "us"}, {"gateway.serve_us_p99", "us"}, {"gateway.http_us_p50", "us"},
		{"gateway.admitted_ratio", "ratio"}, {"gateway.sticky_hit_ratio", "ratio"},
		{"gateway.sticky_violations", "count"}, {"gateway.rejected", "count"}, {"gateway.errors", "count"},
		{"sim.events_per_access", "count"}, {"sim.events_per_s", "1/s"}, {"sim.run_s", "s"},
		{"sim.allocs_per_access", "count"},
		{"proc.allocs_per_op", "count"}, {"proc.bytes_per_op", "B"}, {"proc.gc_per_kop", "count"},
		{"proc.gc_pause_ms", "ms"}, {"proc.user_cpu_us_per_op", "us"}, {"proc.sys_cpu_us_per_op", "us"},
		{"bench.trace_overhead", "ratio"},
	}
	metricUnits = unitsOf(endToEndMetrics, perLayerMetrics)
)

func unitsOf(sets ...[]metricSpec) map[string]string {
	u := make(map[string]string)
	for _, set := range sets {
		for _, m := range set {
			u[m.name] = m.unit
		}
	}
	return u
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// set records a value under a declared metric name, with its unit.
func (m metrics) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type runConfig struct {
	seed      uint64
	seconds   time.Duration
	trace     bool
	spansPath string
}

// outcome is what a workload reports: operation counts over every
// phase, failed checks, and both metric sets (a workload fills the
// per-layer set only when traced).
type outcome struct {
	mu                sync.Mutex // guards problems while callers run
	attempted, failed int64
	problems          []string
	e2e, layer        metrics
	setups            []float64 // seconds from each boot to its first successful access
	notes             []string  // extra lines for the report
	spans             []span
}

func newOutcome() *outcome { return &outcome{e2e: metrics{}, layer: metrics{}} }

func (o *outcome) problem(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"access_net_d3":     runAccessNet,
	"gateway_mem_mixed": runGatewayMem,
	"sim_fine_10k":      runSim,
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer mode")
	spans := flag.String("spans", "", "span output file for traced runs (default .bench_build/spans/<workload>.tsv)")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		spansPath: *spans,
	}
	if cfg.spansPath == "" {
		cfg.spansPath = filepath.Join(".bench_build", "spans", *name+".tsv")
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := finish(cfg, out)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// finish prints the human-readable report, writes spans, and builds
// the result line with exactly the mode's metric set.
func finish(cfg runConfig, out *outcome) result {
	if cfg.trace && len(out.spans) > 0 {
		if err := writeSpans(cfg.spansPath, out.spans); err != nil {
			out.problem("writing spans: %v", err)
		} else {
			fmt.Printf("spans: %d written to %s\n", len(out.spans), cfg.spansPath)
		}
	}
	out.e2e.set("setup_s", median(out.setups))
	names, src := endToEndMetrics, out.e2e
	if cfg.trace {
		names, src = perLayerMetrics, out.layer
	}
	res := result{
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics{},
	}
	for _, spec := range names {
		m, ok := src[spec.name]
		if !ok {
			// A per-layer metric of a layer this workload bypasses: the
			// layer did no work, so it reads zero.
			m = metric{Unit: spec.unit}
			if !cfg.trace {
				out.problem("workload did not report %s", spec.name)
			}
		}
		res.Metrics[spec.name] = m
		fmt.Printf("%-30s %16.4f %s\n", spec.name, m.Value, m.Unit)
	}
	for _, l := range out.notes {
		fmt.Println(l)
	}
	fmt.Println("set-up (ms):" + list(scaled(out.setups, 1e3), "%.2f"))
	if out.failed > 0 {
		fmt.Printf("failed operations: %d of %d\n", out.failed, out.attempted)
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	res.Correct = len(out.problems) == 0
	return res
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
