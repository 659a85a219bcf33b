package substrate

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
	"finelb/internal/obs"
	"finelb/internal/workload"
)

// The golden-metrics harness pins the obs catalog the same way
// simcluster's golden_test.go pins the simulator's results: digests of
// known-deterministic runs are committed to testdata and every future
// run must reproduce them bit for bit. Regenerate deliberately with
//
//	go test ./internal/substrate -run TestGoldenMetricsDigests -update-metrics
//
// only when an intentional metric or model change is being made, and
// say so in the commit message.
var updateMetrics = flag.Bool("update-metrics", false, "rewrite testdata/golden_metrics.json from the current runners")

const goldenMetricsPath = "testdata/golden_metrics.json"

// metricsGolden is one committed digest. Scope names the projection:
// "full" pins every metric (simulator runs, where even latency
// histograms are functions of simulated time), "deterministic" pins
// Snapshot.DeterministicDigest (prototype mem runs, where wall-clock
// timing varies but message and failure counters must not).
type metricsGolden struct {
	Case   string `json:"case"`
	Scope  string `json:"scope"`
	Digest string `json:"digest"`
}

// goldenMemSpec is the fully deterministic prototype scenario of
// TestProtoMemDeterministicUnderFaults: total poll loss with quarantine
// disabled makes every counter a pure function of the spec.
func goldenMemSpec() (Substrate, RunSpec) {
	w := workload.PoissonExp(0.005).ScaledTo(2, 0.5)
	return Proto{Transport: "mem"}, RunSpec{
		Servers: 2, Workload: w,
		Policy:   core.NewPollDiscard(2, 5*time.Millisecond),
		Accesses: 100, Seed: 7,
		Faults: &faults.Schedule{
			Seed:  7,
			Links: []faults.LinkRule{{Client: -1, Server: -1, Loss: 1}},
		},
		QuarantineAfter: -1,
	}
}

func goldenSimSpec() (Substrate, RunSpec) {
	w := workload.PoissonExp(0.05).ScaledTo(8, 0.6)
	return Sim{}, RunSpec{
		Servers: 8, Workload: w, Policy: core.NewPoll(2),
		Accesses: 5000, Seed: 1,
	}
}

// goldenSimFaultSpec is goldenSimSpec under an active fault schedule:
// a crash, a pause and resume, and a lossy link on every inquiry, so
// quarantines, dropped inquiries, discards and retries all fire.
func goldenSimFaultSpec() (Substrate, RunSpec) {
	sim, spec := goldenSimSpec()
	spec.Policy = core.NewPollDiscard(2, 10*time.Millisecond)
	spec.Faults = &faults.Schedule{
		Seed: 3,
		Events: []faults.NodeEvent{
			{At: 3 * time.Second, Node: 1, Kind: faults.Crash},
			{At: 5 * time.Second, Node: 2, Kind: faults.Pause},
			{At: 9 * time.Second, Node: 2, Kind: faults.Resume},
		},
		Links: []faults.LinkRule{{Client: -1, Server: -1, Loss: 0.2}},
	}
	return sim, spec
}

// goldenSimElasticSpec is goldenSimSpec over an elastic pool: a
// scheduled join/drain/leave cycle plus the closed-loop autoscaler.
func goldenSimElasticSpec() (Substrate, RunSpec) {
	sim, spec := goldenSimSpec()
	spec.Membership = &membership.Schedule{Events: []membership.Event{
		{At: 2 * time.Second, Node: 8, Kind: membership.Join},
		{At: 10 * time.Second, Node: 8, Kind: membership.Drain},
		{At: 20 * time.Second, Node: 8, Kind: membership.Leave},
	}}
	spec.Autoscaler = &membership.AutoscalerConfig{
		Min: 6, Max: 12,
		ScaleUpAt: 1.5, ScaleDownAt: 0.5,
		ScaleUpCooldown: 2 * time.Second, ScaleDownCooldown: 5 * time.Second,
		Interval: 250 * time.Millisecond,
	}
	return sim, spec
}

func goldenMetricsRun(t *testing.T) []metricsGolden {
	t.Helper()
	run := func(sub Substrate, spec RunSpec) *RunResult {
		res, err := sub.Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	return []metricsGolden{
		{Case: "sim-poissonexp-poll2", Scope: "full", Digest: run(goldenSimSpec()).Metrics.Digest()},
		{Case: "proto-mem-total-loss", Scope: "deterministic", Digest: run(goldenMemSpec()).Metrics.DeterministicDigest()},
		{Case: "sim-faults-polldiscard2", Scope: "full", Digest: run(goldenSimFaultSpec()).Metrics.Digest()},
		{Case: "sim-elastic-poll2", Scope: "full", Digest: run(goldenSimElasticSpec()).Metrics.Digest()},
	}
}

// TestGoldenMetricsDigests compares the current runners' metric
// snapshots against the committed digests.
func TestGoldenMetricsDigests(t *testing.T) {
	got := goldenMetricsRun(t)
	if *updateMetrics {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenMetricsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenMetricsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenMetricsPath, len(got))
		return
	}

	buf, err := os.ReadFile(goldenMetricsPath)
	if err != nil {
		t.Fatalf("missing golden metric digests (run with -update-metrics to capture): %v", err)
	}
	var want []metricsGolden
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d digests, harness produced %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g != w {
			t.Errorf("case %d: metric snapshot drifted\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestProtoMemMetricsBitIdentical is the regression half of the golden
// satellite: two identical proto-mem runs must freeze bit-identical
// deterministic metric snapshots, independent of any committed file.
func TestProtoMemMetricsBitIdentical(t *testing.T) {
	sub, spec := goldenMemSpec()
	first, err := sub.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sub.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Metrics == nil || second.Metrics == nil {
		t.Fatal("proto-mem run produced no metrics snapshot")
	}
	if a, b := first.Metrics.DeterministicDigest(), second.Metrics.DeterministicDigest(); a != b {
		t.Errorf("identical mem runs froze different metric snapshots:\n%s\nvs\n%s", a, b)
	}
}

// TestSubstratesEmitSameMetricNames pins the cross-substrate contract
// stated on RunResult.Metrics: both substrates resolve the shared
// obs.RunMetrics catalog, so a snapshot from either carries exactly the
// same metric name set.
func TestSubstratesEmitSameMetricNames(t *testing.T) {
	sim, simSpec := goldenSimSpec()
	simRes, err := sim.Run(simSpec)
	if err != nil {
		t.Fatal(err)
	}
	mem, memSpec := goldenMemSpec()
	memRes, err := mem.Run(memSpec)
	if err != nil {
		t.Fatal(err)
	}
	a, b := simRes.Metrics.Names(), memRes.Metrics.Names()
	if len(a) == 0 {
		t.Fatal("empty metric name set")
	}
	if len(a) != len(b) {
		t.Fatalf("name sets differ: sim has %d names, proto-mem %d\nsim: %v\nproto-mem: %v",
			len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("name %d differs: sim %q vs proto-mem %q", i, a[i], b[i])
		}
	}
}

// TestGoldenMetricsCasesReachChurnPaths checks that the fault and
// elastic golden cases exercise what they are there to pin: a digest
// over a run where no quarantine, drop, retry or scale action fired
// would pin nothing the healthy case does not.
func TestGoldenMetricsCasesReachChurnPaths(t *testing.T) {
	sub, spec := goldenSimFaultSpec()
	res, err := sub.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{obs.MetricQuarantines, obs.MetricInquiriesDropped, obs.MetricRetries, obs.MetricPollDiscards} {
		if res.Metrics.Value(name) == 0 {
			t.Errorf("fault case: %s is zero", name)
		}
	}
	sub, spec = goldenSimElasticSpec()
	if res, err = sub.Run(spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{obs.MetricMembershipJoins, obs.MetricMembershipDrains, obs.MetricMembershipLeaves, obs.MetricAutoscaleUps, obs.MetricAutoscaleDowns} {
		if res.Metrics.Value(name) == 0 {
			t.Errorf("elastic case: %s is zero", name)
		}
	}
}
