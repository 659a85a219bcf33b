package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"finelb/internal/experiments"
)

// repro runs the command in-process and returns stdout, stderr, and the
// exit code.
func repro(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// tableDoc mirrors the JSON schema documented in EXPERIMENTS.md.
type tableDoc struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Header []string `json:"header"`
	Rows   [][]any  `json:"rows"`
	Notes  []string `json:"notes"`
}

func parseTables(t *testing.T, out string) []tableDoc {
	t.Helper()
	var tables []tableDoc
	if err := json.Unmarshal([]byte(out), &tables); err != nil {
		t.Fatalf("output is not a JSON table array: %v\n%s", err, out)
	}
	return tables
}

func TestListPrintsEveryID(t *testing.T) {
	out, _, code := repro(t, "list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range experiments.IDs() {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %q", id)
		}
	}
}

func TestNoArgsShowsUsage(t *testing.T) {
	_, errOut, code := repro(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage:") {
		t.Errorf("no usage on stderr:\n%s", errOut)
	}
}

func TestUnknownExperiment(t *testing.T) {
	_, errOut, code := repro(t, "nope")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "nope") {
		t.Errorf("error does not name the id:\n%s", errOut)
	}
}

func TestUnknownFormat(t *testing.T) {
	_, _, code := repro(t, "-format=xml", "table1")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestUnknownTransport(t *testing.T) {
	_, errOut, code := repro(t, "-transport=carrier-pigeon", "table1")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "carrier-pigeon") {
		t.Errorf("error does not name the transport:\n%s", errOut)
	}
}

// TestFailoverMemTransport drives a socket-using experiment end to end
// over the in-memory fabric: the whole cluster must come up, crash a
// node, and keep serving without ever opening a file descriptor.
func TestFailoverMemTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("failover phases sleep through real time (~2s)")
	}
	out, errOut, code := repro(t, "-quick", "-transport=mem", "-format=json", "failover")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	tables := parseTables(t, out)
	if len(tables) != 1 || tables[0].ID != "failover" || len(tables[0].Rows) != 2 {
		t.Fatalf("tables: %+v", tables)
	}
	// After soft-state expiry no errors should remain (second phase).
	if errs, ok := tables[0].Rows[1][2].(float64); !ok || errs != 0 {
		t.Errorf("post-expiry errors = %#v, want 0", tables[0].Rows[1][2])
	}
}

func TestTable1AllFormats(t *testing.T) {
	text, _, code := repro(t, "-quick", "table1")
	if code != 0 || !strings.Contains(text, "== table1:") {
		t.Fatalf("text run: exit %d\n%s", code, text)
	}

	csvOut, _, code := repro(t, "-quick", "-format=csv", "table1")
	if code != 0 || !strings.HasPrefix(csvOut, "Workload,") {
		t.Fatalf("csv run: exit %d\n%s", code, csvOut)
	}

	jsonOut, _, code := repro(t, "-quick", "-format=json", "table1")
	if code != 0 {
		t.Fatalf("json run: exit %d", code)
	}
	tables := parseTables(t, jsonOut)
	if len(tables) != 1 || tables[0].ID != "table1" || len(tables[0].Rows) != 2 {
		t.Fatalf("json tables: %+v", tables)
	}
}

func TestOutFlagWritesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	stdout, _, code := repro(t, "-quick", "-format=json", "-out", path, "table1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if stdout != "" {
		t.Errorf("-out still wrote to stdout:\n%s", stdout)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tables := parseTables(t, string(buf)); tables[0].ID != "table1" {
		t.Errorf("file tables: %+v", tables)
	}
}

func TestBenchFlagWritesRecord(t *testing.T) {
	dir := t.TempDir()
	_, _, code := repro(t, "-quick", "-bench", dir, "table1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "BENCH_table1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec experiments.BenchRecord
	if err := json.Unmarshal(buf, &rec); err != nil {
		t.Fatalf("invalid bench record: %v\n%s", err, buf)
	}
	if rec.Experiment != "table1" || !rec.Quick || rec.ConfigDigest == "" {
		t.Errorf("record fields wrong: %+v", rec)
	}
	if rec.WallSeconds <= 0 || len(rec.Metrics) == 0 {
		t.Errorf("record missing measurements: %+v", rec)
	}
}

// TestMetricsFlagWritesSnapshots checks -metrics: a sweep run must
// leave a JSON array with one labeled obs snapshot per cell.
func TestMetricsFlagWritesSnapshots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	_, errOut, code := repro(t, "-quick", "-metrics", path, "figure4")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, errOut)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []experiments.MetricsRecord
	if err := json.Unmarshal(buf, &recs); err != nil {
		t.Fatalf("metrics file is not a record array: %v\n%s", err, buf)
	}
	// Quick figure4: 3 workloads x 2 loads x 6 policies.
	if len(recs) != 36 {
		t.Fatalf("%d records, want 36", len(recs))
	}
	for _, rec := range recs {
		if rec.Experiment != "figure4" || rec.Substrate != "sim" || rec.Cell == "" {
			t.Fatalf("record labels wrong: %+v", rec)
		}
		if rec.Metrics == nil || len(rec.Metrics.Metrics) == 0 {
			t.Fatalf("record %q has no snapshot", rec.Cell)
		}
	}
	// Every cell ran accesses, so dispatch counters must be live.
	if v := recs[0].Metrics.Value("lb_dispatches_total"); v <= 0 {
		t.Errorf("lb_dispatches_total = %d in first record", v)
	}
}

// TestFigure4JSON is the acceptance check: the headline simulation
// sweep must produce valid machine-readable JSON.
func TestFigure4JSON(t *testing.T) {
	out, _, code := repro(t, "-quick", "-format=json", "figure4")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	tables := parseTables(t, out)
	if len(tables) != 1 || tables[0].ID != "figure4" {
		t.Fatalf("tables: %+v", tables)
	}
	f4 := tables[0]
	if len(f4.Rows) != 6 { // 3 workloads x 2 loads (quick)
		t.Fatalf("rows: %d", len(f4.Rows))
	}
	// Every policy cell must be a JSON number (not a formatted string).
	for r, row := range f4.Rows {
		if len(row) != len(f4.Header) {
			t.Fatalf("row %d has %d cells for %d columns", r, len(row), len(f4.Header))
		}
		for c := 2; c < len(row); c++ {
			v, ok := row[c].(float64)
			if !ok || v <= 0 {
				t.Errorf("cell (%d,%d) = %#v, want a positive number", r, c, row[c])
			}
		}
	}
}

// TestDegradedJSON is the second acceptance check: the fault-injection
// matrix must produce valid machine-readable JSON.
func TestDegradedJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("prototype half of degraded takes ~15s")
	}
	out, _, code := repro(t, "-quick", "-format=json", "degraded")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	tables := parseTables(t, out)
	if len(tables) != 1 || tables[0].ID != "degraded" {
		t.Fatalf("tables: %+v", tables)
	}
	deg := tables[0]
	if len(deg.Rows) != 6 { // 3 policies x 2 substrates
		t.Fatalf("rows: %d", len(deg.Rows))
	}
	if deg.Rows[0][0] != "sim" || deg.Rows[3][0] != "proto" {
		t.Errorf("substrate column wrong: %v / %v", deg.Rows[0][0], deg.Rows[3][0])
	}
	for r, row := range deg.Rows {
		for _, c := range []int{2, 3, 4, 5, 6} { // Healthy, Degraded, Ratio, Lost, Retries
			if _, ok := row[c].(float64); !ok {
				t.Errorf("row %d col %d = %#v, want a number", r, c, row[c])
			}
		}
	}
}
