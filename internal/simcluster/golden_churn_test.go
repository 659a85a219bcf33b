package simcluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"finelb/internal/core"
	"finelb/internal/faults"
	"finelb/internal/membership"
)

// The churn pin extends the golden-seed harness to the runs the healthy
// digests never reach: a crash-and-loss fault schedule, a scheduled
// join/drain/leave cycle, and the closed-loop autoscaler. The digests
// in testdata/golden_churn.json were captured before the simulator's
// access paths were merged into one state machine; the merged runner
// must reproduce them bit for bit. Regenerate deliberately with
//
//	go test ./internal/simcluster -run TestGoldenChurn -update-churn
//
// only for an intentional model change, and say so in the commit
// message. LocalLeast under faults is left out on purpose: its
// tie-break is not part of the pinned contract.
var updateChurn = flag.Bool("update-churn", false, "rewrite testdata/golden_churn.json from the current runner")

const goldenChurnPath = "testdata/golden_churn.json"

// churnDigest is goldenDigest plus the run's membership churn.
type churnDigest struct {
	goldenDigest
	Joins     int64 `json:"joins"`
	Drains    int64 `json:"drains"`
	Leaves    int64 `json:"leaves"`
	FinalPool int   `json:"final_pool"`
	PeakPool  int   `json:"peak_pool"`
}

type churnCase struct {
	name string
	cfg  Config
}

func churnCases() []churnCase {
	var cases []churnCase
	degraded := faults.DegradedDemo(8, 2, 5*time.Second, 0.05, 99)
	for _, pol := range []core.Policy{
		core.NewRandom(), core.NewRoundRobin(), core.NewIdeal(),
		core.NewPollDiscard(2, 10*time.Millisecond), core.NewPollDiscard(3, 10*time.Millisecond),
	} {
		cases = append(cases, churnCase{"faults-" + pol.String(), Config{
			Servers: 8, Workload: elasticWorkload(8, 0.6), Policy: pol,
			Accesses: 6000, Faults: degraded,
		}})
	}
	cycle := membership.ScaleCycle(8, 4, 5*time.Second, 20*time.Second, 2*time.Second, 5)
	for _, pol := range []core.Policy{core.NewRandom(), core.NewIdeal(), core.NewLocalLeast(), core.NewPoll(2)} {
		cases = append(cases, churnCase{"cycle-" + pol.String(), Config{
			Servers: 8, Workload: elasticWorkload(8, 0.7), Policy: pol,
			Accesses: 6000, Membership: cycle,
		}})
	}
	for _, pol := range []core.Policy{core.NewRandom(), core.NewPoll(2)} {
		cases = append(cases, churnCase{"autoscale-" + pol.String(), Config{
			Servers: 2, Workload: elasticWorkload(2, 0.95).WithDiurnalArrivals(0.9, 60), Policy: pol,
			Accesses: 8000,
			Autoscaler: &membership.AutoscalerConfig{
				Min: 2, Max: 8,
				ScaleUpAt: 3, ScaleDownAt: 0.5,
				ScaleUpCooldown: 2 * time.Second, ScaleDownCooldown: 5 * time.Second,
				Interval: 250 * time.Millisecond,
			},
		}})
	}
	return cases
}

func runChurn(t *testing.T) []churnDigest {
	t.Helper()
	var out []churnDigest
	for _, c := range churnCases() {
		for _, seed := range goldenSeeds {
			cfg := c.cfg
			cfg.Seed = seed
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.name, seed, err)
			}
			out = append(out, churnDigest{
				goldenDigest: digestOf(c.name, seed, res),
				Joins:        res.Joins, Drains: res.Drains, Leaves: res.Leaves,
				FinalPool: res.FinalPool, PeakPool: res.PeakPool,
			})
		}
	}
	return out
}

func TestGoldenChurn(t *testing.T) {
	got := runChurn(t)
	if *updateChurn {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenChurnPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenChurnPath, len(got))
		return
	}
	buf, err := os.ReadFile(goldenChurnPath)
	if err != nil {
		t.Fatalf("missing churn digests: %v", err)
	}
	var want []churnDigest
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d digests, harness produced %d", len(want), len(got))
	}
	for i, w := range want {
		if g := got[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s seed %d: run is no longer bit-identical\n%s", w.Case, w.Seed, churnDiff(g, w))
		}
	}
}

// churnDiff names the digest fields that differ.
func churnDiff(got, want churnDigest) string {
	gv, wv := reflect.ValueOf(got.goldenDigest), reflect.ValueOf(want.goldenDigest)
	out := ""
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			out += fmt.Sprintf(" %s: got %v want %v\n", gv.Type().Field(i).Name, gv.Field(i).Interface(), wv.Field(i).Interface())
		}
	}
	if got.Joins != want.Joins || got.Drains != want.Drains || got.Leaves != want.Leaves ||
		got.FinalPool != want.FinalPool || got.PeakPool != want.PeakPool {
		out += fmt.Sprintf(" churn: got %d/%d/%d final %d peak %d, want %d/%d/%d final %d peak %d\n",
			got.Joins, got.Drains, got.Leaves, got.FinalPool, got.PeakPool,
			want.Joins, want.Drains, want.Leaves, want.FinalPool, want.PeakPool)
	}
	return out
}
