package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The golden-table harness pins the -quick, seed 1, JSON tables of the
// deterministic simulator experiments bit for bit, so refactors of the
// drivers can prove they changed no number. Regenerate deliberately with
//
//	go test ./internal/experiments -run TestGoldenTables -update-tables
//
// only when an intentional model change is being made, and say so in
// the commit message.
var updateTables = flag.Bool("update-tables", false, "rewrite testdata/golden_tables.json from the current drivers")

const goldenTablesPath = "testdata/golden_tables.json"

// goldenTableIDs are the experiments whose quick tables depend only on
// the seed: every simulator driver without a wall-clock column.
var goldenTableIDs = []string{
	"table1", "figure2", "figure3", "figure4", "upperbound", "flocking",
	"syncablation", "messages", "leastconn", "burstiness", "hetchurn",
}

// quickRun is one experiment run at quickOpts with a metrics sink.
type quickRun struct {
	once sync.Once
	tbl  *Table
	recs []MetricsRecord
	err  error
}

var quickRuns sync.Map // id -> *quickRun

// runQuick runs experiment id at quickOpts once per test binary and
// shares the table and its metrics records between the shape, golden
// and metrics tests, so the suite pays for each quick table once.
func runQuick(t *testing.T, id string) (*Table, []MetricsRecord) {
	t.Helper()
	v, _ := quickRuns.LoadOrStore(id, &quickRun{})
	r := v.(*quickRun)
	r.once.Do(func() {
		run, err := Get(id)
		if err != nil {
			r.err = err
			return
		}
		o := quickOpts
		o.Metrics = &MetricsLog{}
		r.tbl, r.err = run(o)
		r.recs = o.Metrics.Records()
	})
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r.tbl, r.recs
}

// tableDigest fingerprints a table's JSON rendering, which carries
// every cell at full precision.
func tableDigest(t *testing.T, tbl *Table) string {
	t.Helper()
	var b strings.Builder
	if err := tbl.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func TestGoldenTables(t *testing.T) {
	got := map[string]string{}
	for _, id := range goldenTableIDs {
		tbl, _ := runQuick(t, id)
		got[id] = tableDigest(t, tbl)
	}
	if *updateTables {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenTablesPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTablesPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenTablesPath, len(got))
		return
	}

	buf, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		t.Fatalf("missing golden table digests (run with -update-tables to capture): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d digests, harness produced %d", len(want), len(got))
	}
	for _, id := range goldenTableIDs {
		if got[id] != want[id] {
			t.Errorf("%s: quick table digest %s, want %s (table no longer bit-identical)", id, got[id], want[id])
		}
	}
}

// TestMetricsEveryRun requires every simulator experiment to log one
// metrics record per substrate run, each under its own cell label, so
// `repro -metrics` holds a snapshot for every cell it rendered.
func TestMetricsEveryRun(t *testing.T) {
	runs := map[string]int{ // substrate runs per quick table
		"figure2":      6,           // 2 loads x 3 workloads
		"figure3":      6 * (1 + 4), // 6 rows x (ideal + 4 intervals)
		"figure4":      6 * 6,       // 6 rows x 6 policies
		"upperbound":   4,
		"flocking":     6 * 2, // plain, corrected
		"syncablation": 3 * 2, // fixed, jittered
		"messages":     12 * 2,
		"leastconn":    3 * 4,
		"burstiness":   3 * 3,
		"hetchurn":     3 * 5,
		"simscale":     4,
	}
	for id, want := range runs {
		_, recs := runQuick(t, id)
		if len(recs) != want {
			t.Errorf("%s: %d metrics records, want one per run (%d)", id, len(recs), want)
		}
		seen := map[string]bool{}
		for _, rec := range recs {
			if rec.Experiment != id || rec.Substrate != "sim" || rec.Metrics == nil {
				t.Errorf("%s: bad record %q (experiment %q, substrate %q)", id, rec.Cell, rec.Experiment, rec.Substrate)
			}
			if rec.Cell == "" || seen[rec.Cell] {
				t.Errorf("%s: cell label %q is empty or repeated", id, rec.Cell)
			}
			seen[rec.Cell] = true
		}
	}
}
