package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// layerMetricsOf lists the per-layer metrics a workload must measure
// itself when traced; the rest belong to layers it bypasses.
func layerMetricsOf(workload string) []string {
	var out []string
	for _, m := range perLayerMetrics {
		layer, _, _ := strings.Cut(m.name, ".")
		span := strings.Contains(m.name, "_us_") || m.name == "cluster.poll_self_share"
		var ok bool
		switch layer {
		case "proc", "bench":
			ok = true
		case "cluster":
			ok = workload != "sim_fine_10k" && (workload == "access_net_d3" || !span)
		case "node", "transport":
			ok = workload != "sim_fine_10k"
		case "gateway":
			ok = workload == "gateway_mem_mixed"
		case "sim":
			ok = workload == "sim_fine_10k"
		}
		if ok {
			out = append(out, m.name)
		}
	}
	return out
}

func TestWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/plain", true: "/traced"}[trace], func(t *testing.T) {
				cfg := runConfig{
					seed:      5,
					seconds:   300 * time.Millisecond,
					trace:     trace,
					spansPath: filepath.Join(t.TempDir(), "spans.tsv"),
				}
				out, err := workloads[name](cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.problems) > 0 || out.failed > 0 || out.attempted < 1 {
					t.Fatalf("attempted %d, failed %d, problems %v", out.attempted, out.failed, out.problems)
				}
				res := finish(cfg, out)
				if !res.Correct {
					t.Fatalf("result not correct")
				}
				specs := endToEndMetrics
				if trace {
					specs = perLayerMetrics
					for _, n := range layerMetricsOf(name) {
						if _, ok := out.layer[n]; !ok {
							t.Errorf("missing %s", n)
						}
					}
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, spec := range specs {
					m := res.Metrics[spec.name]
					if m.Unit != spec.unit || (!trace && m.Value <= 0) {
						t.Errorf("%s = %v %s, want a positive value in %s", spec.name, m.Value, m.Unit, spec.unit)
					}
				}
			})
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric tables here and the
// repository's BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
