package finelb_test

// One testing.B benchmark per table and figure of the paper (plus the
// ablations), each running a reduced-scale version of the same driver
// that cmd/repro runs at full fidelity. `go test -bench=.` therefore
// regenerates every artifact's machinery and reports its cost; the
// tables themselves are printed once per benchmark (b.N iterations
// reuse fresh seeds so the work is not cached away).

import (
	"fmt"
	"os"
	"testing"
	"time"

	"finelb/internal/experiments"
)

// benchExperiment runs one experiment driver at quick scale b.N times,
// printing the resulting table on the first iteration. When the
// FINELB_BENCH_DIR environment variable names a directory, the first
// iteration also drops a machine-readable BENCH_<id>.json record there
// (CI uploads these as artifacts).
func benchExperiment(b *testing.B, id string) {
	run, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		opts := experiments.Options{Quick: true, Seed: uint64(i + 1)}
		start := time.Now()
		tbl, err := run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if dir := os.Getenv("FINELB_BENCH_DIR"); dir != "" {
				rec := experiments.NewBenchRecord(id, opts, tbl, time.Since(start))
				if err := experiments.WriteBenchRecord(dir, rec); err != nil {
					b.Fatal(err)
				}
			}
			if testing.Verbose() {
				fmt.Print(tbl.String())
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (trace statistics).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFigure2 regenerates Figure 2 (load-index inaccuracy vs delay).
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "figure2") }

// BenchmarkFigure3 regenerates Figure 3 (broadcast frequency sweep).
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "figure3") }

// BenchmarkFigure4 regenerates Figure 4 (poll-size sweep, simulation).
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "figure4") }

// BenchmarkFigure6 regenerates Figure 6 (poll-size sweep, prototype).
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "figure6") }

// BenchmarkTable2 regenerates Table 2 (discarding slow-responding polls).
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkUpperbound regenerates E1 (Equation 1 validation).
func BenchmarkUpperbound(b *testing.B) { benchExperiment(b, "upperbound") }

// BenchmarkPollProfile regenerates P1 (the §3.2 poll-latency profile).
func BenchmarkPollProfile(b *testing.B) { benchExperiment(b, "pollprofile") }

// BenchmarkFlocking regenerates ablation A1.
func BenchmarkFlocking(b *testing.B) { benchExperiment(b, "flocking") }

// BenchmarkSyncAblation regenerates ablation A2.
func BenchmarkSyncAblation(b *testing.B) { benchExperiment(b, "syncablation") }

// BenchmarkMessages regenerates ablation A3 (message-overhead scaling).
func BenchmarkMessages(b *testing.B) { benchExperiment(b, "messages") }
