package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"finelb/internal/core"
)

var quickOpts = Options{Quick: true, Seed: 1}

// cellF parses a table cell as a float.
func cellF(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tbl.Cell(row, col), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a number: %v", row, col, tbl.Cell(row, col), err)
	}
	return v
}

// colIndex finds a header column by exact name.
func colIndex(t *testing.T, tbl *Table, name string) int {
	t.Helper()
	for i, h := range tbl.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, tbl.Header)
	return -1
}

// rowIndex finds the first row whose given columns match the values.
func rowIndex(t *testing.T, tbl *Table, match map[int]string) int {
	t.Helper()
	for r, row := range tbl.Rows {
		ok := true
		for c, want := range match {
			if row[c].String() != want {
				ok = false
				break
			}
		}
		if ok {
			return r
		}
	}
	t.Fatalf("no row matching %v", match)
	return -1
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 {
		t.Fatalf("registry has %d entries: %v", len(ids), ids)
	}
	for _, id := range ids {
		if _, err := Get(id); err != nil {
			t.Errorf("Get(%q): %v", id, err)
		}
		if desc, err := Describe(id); err != nil || desc == "" {
			t.Errorf("Describe(%q) = %q, %v", id, desc, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	if _, err := Describe("nope"); err == nil {
		t.Error("Describe accepted an unknown id")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Header: []string{"a", "b"}}
	tbl.AddRow("one", 1.5)
	tbl.AddRow(2, "two")
	tbl.AddNote("note %d", 7)
	out := tbl.String()
	for _, want := range []string{"== x: demo ==", "one", "1.5", "two", "note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if tbl.Cell(0, 1) != "1.5" {
		t.Errorf("Cell = %q", tbl.Cell(0, 1))
	}
}

func TestTable1(t *testing.T) {
	tbl, _ := runQuick(t, "table1")
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Measured service means must track the published columns within 10%.
	for r := 0; r < 2; r++ {
		got := cellF(t, tbl, r, 4)
		want := cellF(t, tbl, r, 6)
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("row %d: measured service mean %v vs published %v", r, got, want)
		}
	}
}

func TestFigure2(t *testing.T) {
	tbl, _ := runQuick(t, "figure2")
	if len(tbl.Rows) != 6 { // 2 busy levels x 3 workloads
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Poisson/Exp at 90%: inaccuracy grows with delay and stays below
	// the Eq.1 bound (within noise).
	r := rowIndex(t, tbl, map[int]string{0: "90%", 1: "Poisson/Exp"})
	small := cellF(t, tbl, r, 2)  // d=0.1x
	large := cellF(t, tbl, r, 11) // d=100x
	bound := cellF(t, tbl, r, 12) // Eq1 bound
	if small >= large {
		t.Errorf("inaccuracy not increasing: %v vs %v", small, large)
	}
	if large > bound*1.25 {
		t.Errorf("inaccuracy %v above bound %v", large, bound)
	}
	// 50% Poisson bound is the paper's 1.33.
	r50 := rowIndex(t, tbl, map[int]string{0: "50%", 1: "Poisson/Exp"})
	if b := cellF(t, tbl, r50, 12); b < 1.3 || b > 1.37 {
		t.Errorf("50%% bound = %v, want 1.333", b)
	}
}

func TestFigure3(t *testing.T) {
	tbl, _ := runQuick(t, "figure3")
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Fine-grain at 90%: 1s broadcast interval is much worse than 2ms,
	// and the normalized values are >= ~1 (IDEAL is the floor).
	r := rowIndex(t, tbl, map[int]string{0: "90%", 1: "Fine-Grain trace"})
	fast := cellF(t, tbl, r, 3) // 2ms column
	slow := cellF(t, tbl, r, 6) // 1000ms column
	if slow < 3*fast {
		t.Errorf("slow broadcast %v not >> fast %v for fine grain at 90%%", slow, fast)
	}
	if fast < 0.8 {
		t.Errorf("normalized response %v below IDEAL floor", fast)
	}
}

func TestFigure4(t *testing.T) {
	tbl, _ := runQuick(t, "figure4")
	if len(tbl.Rows) != 6 { // 3 workloads x 2 loads (quick)
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	randomCol := colIndex(t, tbl, "random")
	poll2Col := colIndex(t, tbl, "poll 2")
	idealCol := colIndex(t, tbl, "ideal")
	r := rowIndex(t, tbl, map[int]string{0: "Poisson/Exp", 1: "90%"})
	random := cellF(t, tbl, r, randomCol)
	poll2 := cellF(t, tbl, r, poll2Col)
	ideal := cellF(t, tbl, r, idealCol)
	if !(poll2 < random/2) {
		t.Errorf("poll2 %v not dramatically below random %v", poll2, random)
	}
	if ideal > poll2*1.1 {
		t.Errorf("ideal %v above poll2 %v", ideal, poll2)
	}
}

func TestUpperbound(t *testing.T) {
	tbl, _ := runQuick(t, "upperbound")
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		closed := cellF(t, tbl, r, 1)
		series := cellF(t, tbl, r, 2)
		sim := cellF(t, tbl, r, 3)
		if diff := closed - series; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("row %d: closed %v vs series %v", r, closed, series)
		}
		if sim < closed*0.5 || sim > closed*1.3 {
			t.Errorf("row %d: simulated %v far from bound %v", r, sim, closed)
		}
	}
}

func TestMessages(t *testing.T) {
	tbl, _ := runQuick(t, "messages")
	pollCol := colIndex(t, tbl, "Poll3/access")
	bcastCol := colIndex(t, tbl, "Broadcast(10ms)/access")
	for r := range tbl.Rows {
		// Polling: exactly 2 messages per polled server per access.
		if v := cellF(t, tbl, r, pollCol); v != 6 {
			t.Errorf("row %d: poll messages/access = %v, want 6", r, v)
		}
	}
	// Broadcast per-access cost grows when clients triple... (2 -> 6).
	r2 := rowIndex(t, tbl, map[int]string{0: "16", 1: "2", 2: "90%"})
	r6 := rowIndex(t, tbl, map[int]string{0: "16", 1: "6", 2: "90%"})
	if !(cellF(t, tbl, r6, bcastCol) > cellF(t, tbl, r2, bcastCol)) {
		t.Error("broadcast cost did not grow with client count")
	}
	// ...and shrinks per access at higher load (same messages, more accesses).
	rLow := rowIndex(t, tbl, map[int]string{0: "16", 1: "6", 2: "50%"})
	if !(cellF(t, tbl, rLow, bcastCol) > cellF(t, tbl, r6, bcastCol)) {
		t.Error("broadcast per-access cost not higher at lower load")
	}
}

func TestFlocking(t *testing.T) {
	tbl, _ := runQuick(t, "flocking")
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Correction should never be dramatically worse; usually better.
	for r := range tbl.Rows {
		plain := cellF(t, tbl, r, 2)
		fixed := cellF(t, tbl, r, 3)
		if fixed > plain*1.3 {
			t.Errorf("row %d: local correction much worse (%v vs %v)", r, fixed, plain)
		}
	}
}

func TestSyncAblation(t *testing.T) {
	tbl, _ := runQuick(t, "syncablation")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
}

// TestFigure6Prototype checks the paper's poll-vs-random ordering on
// the prototype, over real sockets and over the in-memory fabric. A
// quick cell spans ~2 s of wall time on a shared box, where one
// slow-poll stall can lift a poll-2 mean tenfold, so each row compares
// the medians of five seeded repetitions of its random and poll-2
// cells rather than a single draw. The band stays at 20%: the
// paper's true effect is a 2-4x improvement, which the band still
// distinguishes from a regression. Full-fidelity runs are recorded in
// EXPERIMENTS.md with strict margins.
//
// The in-memory half runs first. It holds its margin with both vCPUs
// of a 2-vCPU box kept busy by other processes, while a poll-2
// Fine-Grain run of the socket half still collapses now and then when
// it overlaps the other packages `go test ./...` runs at the same time
// (a 700 ms seed in two of three full runs). Run second, the socket
// half starts after those packages have finished on such a box.
func TestFigure6Prototype(t *testing.T) {
	if testing.Short() {
		t.Skip("five prototype sweeps per transport take ~80s")
	}
	for _, tr := range []string{"mem", "net"} {
		t.Run(tr, func(t *testing.T) {
			var names []string
			var random, poll2 [][]float64 // [row][repetition]
			for seed := uint64(1); seed <= 5; seed++ {
				o := quickOpts
				o.Seed, o.Transport = seed, tr
				tbl, err := figure6Sweep(o, []core.Policy{core.NewRandom(), core.NewPoll(2)})
				if err != nil {
					t.Fatal(err)
				}
				if len(tbl.Rows) != 3 { // 3 workloads x 1 load (quick)
					t.Fatalf("rows: %d", len(tbl.Rows))
				}
				if names == nil {
					names = make([]string, len(tbl.Rows))
					random = make([][]float64, len(tbl.Rows))
					poll2 = make([][]float64, len(tbl.Rows))
				}
				randomCol := colIndex(t, tbl, "random")
				poll2Col := colIndex(t, tbl, "poll 2")
				for r := range tbl.Rows {
					names[r] = tbl.Cell(r, 0)
					random[r] = append(random[r], cellF(t, tbl, r, randomCol))
					poll2[r] = append(poll2[r], cellF(t, tbl, r, poll2Col))
				}
			}
			for r, name := range names {
				rm, pm := median(random[r]), median(poll2[r])
				t.Logf("%s: poll2 %v, random %v", name, poll2[r], random[r])
				if pm >= rm*1.2 {
					t.Errorf("row %d (%s): median poll2 %v not below median random %v (+20%% noise band); poll2 %v, random %v",
						r, name, pm, rm, poll2[r], random[r])
				}
			}
		})
	}
}

// median is the middle value of an odd-length sample.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

func TestUnknownTransportRejected(t *testing.T) {
	o := quickOpts
	o.Transport = "carrier-pigeon"
	if _, err := Table2(o); err == nil {
		t.Error("Table2 accepted an unknown transport")
	}
	if _, err := Failover(o); err == nil {
		t.Error("Failover accepted an unknown transport")
	}
}

func TestTable2Prototype(t *testing.T) {
	if testing.Short() {
		t.Skip("prototype comparison takes ~15s")
	}
	tbl, err := Table2(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Discard must cut the mean polling time for every workload.
	for r := range tbl.Rows {
		origPoll := cellF(t, tbl, r, 2)
		optPoll := cellF(t, tbl, r, 4)
		if optPoll >= origPoll {
			t.Errorf("row %d: discard did not reduce polling time (%v vs %v)", r, optPoll, origPoll)
		}
	}
}

func TestPollProfilePrototype(t *testing.T) {
	if testing.Short() {
		t.Skip("prototype profile takes a few seconds")
	}
	tbl, err := PollProfile(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 { // quick: Poisson/Exp only
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	over10 := cellF(t, tbl, 0, 2)
	over20 := cellF(t, tbl, 0, 3)
	// Calibration target: paper reports 8.1% / 5.6%; accept a loose band
	// on the quick run.
	if over10 < 2 || over10 > 16 {
		t.Errorf(">10ms fraction %v%% outside calibration band", over10)
	}
	if over20 > over10 {
		t.Errorf(">20ms (%v%%) exceeds >10ms (%v%%)", over20, over10)
	}
}

func TestFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover demo sleeps through soft-state expiry")
	}
	tbl, err := Failover(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// No errors before the crash, none after expiry.
	if errs := cellF(t, tbl, 0, 2); errs != 0 {
		t.Errorf("errors before crash: %v", errs)
	}
	if errs := cellF(t, tbl, 1, 2); errs != 0 {
		t.Errorf("errors after failover: %v", errs)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Header: []string{"a", "b"}}
	tbl.AddRow("plain", 1.25)
	tbl.AddRow(`with,comma`, `with"quote`)
	var b strings.Builder
	if err := tbl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "a,b\nplain,1.25\n\"with,comma\",\"with\"\"quote\"\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestLeastConnExperiment(t *testing.T) {
	tbl, _ := runQuick(t, "leastconn")
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	randomCol := colIndex(t, tbl, "random")
	llCol := colIndex(t, tbl, "least-conn")
	idealCol := colIndex(t, tbl, "ideal")
	for r := range tbl.Rows {
		random := cellF(t, tbl, r, randomCol)
		ll := cellF(t, tbl, r, llCol)
		ideal := cellF(t, tbl, r, idealCol)
		if !(ll < random) {
			t.Errorf("row %d: least-conn %v not below random %v", r, ll, random)
		}
		if ll < ideal*0.95 {
			t.Errorf("row %d: least-conn %v below ideal %v", r, ll, ideal)
		}
	}
}

func TestBurstinessExperiment(t *testing.T) {
	tbl, _ := runQuick(t, "burstiness")
	if len(tbl.Rows) != 3 { // quick: bursts x1, x2, x5
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Bursts inflate every policy's queueing delay, ideal included, so
	// the random/ideal *ratio* is not monotone in burstiness. What is
	// robust (checked across seeds) is that moderate burstiness widens
	// the *absolute* random-to-ideal gap, and that random stays well
	// above ideal at every burst level.
	gapCol := colIndex(t, tbl, "random-ideal(ms)")
	calm := cellF(t, tbl, 0, gapCol)
	bursty := cellF(t, tbl, 1, gapCol)
	if bursty <= calm {
		t.Errorf("burst x2 did not widen the absolute random-ideal gap: %v vs %v ms", bursty, calm)
	}
	ratioCol := colIndex(t, tbl, "random/ideal")
	for r := range tbl.Rows {
		if ratio := cellF(t, tbl, r, ratioCol); ratio < 1.2 {
			t.Errorf("row %d: random/ideal ratio %v below 1.2", r, ratio)
		}
	}
}

func TestDegradedExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("prototype half takes ~15s; sim fault coverage lives in internal/simcluster")
	}
	tbl, err := Degraded(quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 { // 3 policies x 2 substrates
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	ratioCol := colIndex(t, tbl, "Ratio")
	lostCol := colIndex(t, tbl, "Lost")
	retriesCol := colIndex(t, tbl, "Retries")
	// Simulator rows 1-2 are poll 2 and poll 3: with quarantine, retry
	// and backoff the degraded run must stay within 2x of healthy and
	// lose nothing.
	for r := 1; r <= 2; r++ {
		if ratio := cellF(t, tbl, r, ratioCol); ratio > 2.0 {
			t.Errorf("sim row %d: degraded/healthy ratio %v exceeds 2x", r, ratio)
		}
		if lost := cellF(t, tbl, r, lostCol); lost != 0 {
			t.Errorf("sim row %d: lost %v accesses", r, lost)
		}
		if retries := cellF(t, tbl, r, retriesCol); retries == 0 {
			t.Errorf("sim row %d: crash run recorded no retries", r)
		}
	}
	// Prototype polling rows (4-5): real sockets may hit transient
	// errors in the crash-to-expiry window, but retries must hold losses
	// to a tiny fraction of the run.
	for r := 4; r <= 5; r++ {
		if lost := cellF(t, tbl, r, lostCol); lost > 20 {
			t.Errorf("proto row %d: lost %v accesses", r, lost)
		}
	}
}

func TestGatewayExperiment(t *testing.T) {
	o := quickOpts
	o.Transport = "mem"
	tbl, err := Gateway(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 { // random, poll 2
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	sentCol := colIndex(t, tbl, "Sent")
	okCol := colIndex(t, tbl, "OK")
	limitedCol := colIndex(t, tbl, "Limited")
	stickyCol := colIndex(t, tbl, "Sticky")
	for r := range tbl.Rows {
		sent := cellF(t, tbl, r, sentCol)
		okN := cellF(t, tbl, r, okCol)
		limited := cellF(t, tbl, r, limitedCol)
		if sent != 600 {
			t.Errorf("row %d: sent %v, want 600", r, sent)
		}
		if okN == 0 {
			t.Errorf("row %d: no admitted requests", r)
		}
		// Free's bucket passes an eighth of the aggregate rate while
		// being offered half, so the limiter must visibly bite.
		if limited == 0 {
			t.Errorf("row %d: rate limiter never engaged", r)
		}
		// Paid sessions re-use 32 keys across 300 requests: affinity
		// must show up.
		if sticky := cellF(t, tbl, r, stickyCol); sticky == 0 {
			t.Errorf("row %d: no sticky hits", r)
		}
	}
}

func TestSimScale(t *testing.T) {
	o := quickOpts
	o.Servers = 64
	o.Accesses = 20000
	tbl, err := SimScale(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for r := range tbl.Rows {
		// The -servers/-accesses overrides must reach the run.
		if got := cellF(t, tbl, r, 1); got != 64 {
			t.Errorf("row %d: servers %v, want 64 (override ignored)", r, got)
		}
		if got := cellF(t, tbl, r, 2); got != 20000 {
			t.Errorf("row %d: accesses %v, want 20000 (override ignored)", r, got)
		}
		// Every access needs several events (arrival, dispatch, service,
		// response), so the event count bounds the access count below.
		if events := cellF(t, tbl, r, 3); events < 20000*2 {
			t.Errorf("row %d: only %v events for 20000 accesses", r, events)
		}
		if eps := cellF(t, tbl, r, 5); eps <= 0 {
			t.Errorf("row %d: events/sec %v", r, eps)
		}
		if mean := cellF(t, tbl, r, 6); mean <= 0 {
			t.Errorf("row %d: mean response %v ms", r, mean)
		}
	}
	// random dispatches blind; poll-8 consults eight queues. At 80% busy
	// the ordering is a structural property, not a statistical accident.
	if rnd, p8 := cellF(t, tbl, 0, 6), cellF(t, tbl, 2, 6); p8 >= rnd {
		t.Errorf("poll-8 mean %.3f >= random mean %.3f", p8, rnd)
	}
}

func TestElasticExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("prototype half runs ~8s of wall-clock diurnal trace; cluster elastic coverage lives in internal/cluster")
	}
	o := quickOpts
	o.Transport = "mem"
	tbl, err := Elastic(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 { // sim: 2 policies x 2 modes; proto-mem: 1 policy x 2 modes
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	modeCol := colIndex(t, tbl, "Mode")
	meanCol := colIndex(t, tbl, "Mean(ms)")
	finalCol := colIndex(t, tbl, "FinalPool")
	peakCol := colIndex(t, tbl, "PeakPool")
	joinsCol := colIndex(t, tbl, "Joins")
	lostCol := colIndex(t, tbl, "Lost")
	for r := range tbl.Rows {
		mode := tbl.Cell(r, modeCol)
		joins := cellF(t, tbl, r, joinsCol)
		peak := cellF(t, tbl, r, peakCol)
		final := cellF(t, tbl, r, finalCol)
		switch mode {
		case "fixed":
			if joins != 0 || peak != elasticServers || final != elasticServers {
				t.Errorf("row %d: fixed pool churned (joins %v, pool %v..%v)", r, joins, final, peak)
			}
		case "auto":
			// The pool must track the diurnal peak: grow above the
			// initial size, never past Max.
			if joins == 0 || peak <= elasticServers || peak > elasticMax {
				t.Errorf("row %d: autoscaler did not track load (joins %v, peak %v)", r, joins, peak)
			}
		default:
			t.Errorf("row %d: unknown mode %q", r, mode)
		}
		// Planned membership changes never lose accepted work.
		if lost := cellF(t, tbl, r, lostCol); lost != 0 {
			t.Errorf("row %d: lost %v accesses", r, lost)
		}
	}
	// Simulator cells are deterministic: the elastic pool must beat the
	// overloaded fixed pool outright (rows alternate fixed, auto).
	for r := 0; r < 4; r += 2 {
		fixed := cellF(t, tbl, r, meanCol)
		auto := cellF(t, tbl, r+1, meanCol)
		if auto >= fixed {
			t.Errorf("sim rows %d/%d: autoscaled mean %v not below fixed %v", r, r+1, auto, fixed)
		}
	}
}

func TestHetChurnExperiment(t *testing.T) {
	tbl, _ := runQuick(t, "hetchurn")
	if len(tbl.Rows) != 3 { // homogeneous, het, het+churn
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	randCol := colIndex(t, tbl, "RANDOM(ms)")
	p2Col := colIndex(t, tbl, "POLL-2(ms)")
	p4Col := colIndex(t, tbl, "POLL-4(ms)")
	p8Col := colIndex(t, tbl, "POLL-8(ms)")
	p16Col := colIndex(t, tbl, "POLL-16(ms)")
	// The het cluster has the same total capacity, yet random placement
	// is unstable: each 0.25x server is offered ~2.9x its capacity.
	if homo, het := cellF(t, tbl, 0, randCol), cellF(t, tbl, 1, randCol); het < 10*homo {
		t.Errorf("het RANDOM %v not clearly unstable vs homogeneous %v", het, homo)
	}
	// The non-monotone stability row: 2-polls are forced onto slow
	// servers (unstable), an interior poll size is best, and full
	// information pays more in poll latency than it buys in placement.
	p2, p8, p16 := cellF(t, tbl, 1, p2Col), cellF(t, tbl, 1, p8Col), cellF(t, tbl, 1, p16Col)
	if !(p8 < p2 && p8 < p16) {
		t.Errorf("het row not non-monotone in poll size: POLL-2 %v, POLL-8 %v, POLL-16 %v", p2, p8, p16)
	}
	if p2 < 10*p8 {
		t.Errorf("het POLL-2 %v not clearly unstable vs interior optimum %v", p2, p8)
	}
	// On the homogeneous cluster the same poll-cost model makes load
	// information a net cost at fine grain (the paper's Figure 6 story).
	if homoRand, homo16 := cellF(t, tbl, 0, randCol), cellF(t, tbl, 0, p16Col); homo16 <= homoRand {
		t.Errorf("homogeneous row: POLL-16 %v not above RANDOM %v under the poll-cost model", homo16, homoRand)
	}
	// Draining a fast node mid-run shrinks the capacity margin and must
	// show up against the same-poll-size het cell.
	if het4, churn4 := cellF(t, tbl, 1, p4Col), cellF(t, tbl, 2, p4Col); churn4 <= het4 {
		t.Errorf("churn POLL-4 %v not above het %v", churn4, het4)
	}
}
