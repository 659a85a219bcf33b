package experiments

import (
	"fmt"
	"slices"
	"strings"

	"finelb/internal/core"
	"finelb/internal/substrate"
	"finelb/internal/workload"
)

// sweepServers is the cluster size of the paper's poll-size sweeps
// (Figures 4 and 6).
const sweepServers = 16

// runCell executes one cell of experiment id on sub, records the run's
// metrics snapshot under label and prints its progress line. It is the
// package's only call to Substrate.Run, so every load-balancing run of
// every experiment reaches Options.Metrics and Options.Progress the
// same way.
func runCell(o Options, id string, sub substrate.Substrate, label string, spec substrate.RunSpec) (*substrate.RunResult, error) {
	res, err := sub.Run(spec)
	if err != nil {
		return nil, err
	}
	o.record(id, label, sub.Name(), res.Metrics)
	o.progress("%s: %s %s done (mean %.4g ms)", id, sub.Name(), label, res.MeanResponse*1e3)
	return res, nil
}

// sweepRow is one table row of a rows × policies sweep: its leading
// cells, which also label its runs, and the spec its runs share apart
// from the policy.
type sweepRow struct {
	lead []any
	spec substrate.RunSpec
}

// sweep runs every row under every policy on sub and adds one row to t
// per sweep row: the leading cells, then cells(results) with the
// results in policy order.
func sweep(o Options, sub substrate.Substrate, t *Table, rows []sweepRow,
	policies []core.Policy, cells func([]*substrate.RunResult) []any) error {

	for _, r := range rows {
		lead := make([]string, len(r.lead))
		for i, c := range r.lead {
			lead[i] = fmt.Sprint(c)
		}
		results := make([]*substrate.RunResult, len(policies))
		for i, p := range policies {
			spec := r.spec
			spec.Policy = p
			res, err := runCell(o, t.ID, sub, strings.Join(append(lead, p.String()), " "), spec)
			if err != nil {
				return err
			}
			results[i] = res
		}
		t.AddRow(slices.Concat(r.lead, cells(results))...)
	}
	return nil
}

// meanMs is each run's mean response time in ms.
func meanMs(results []*substrate.RunResult) []any {
	out := make([]any, len(results))
	for i, r := range results {
		out[i] = r.MeanResponse * 1e3
	}
	return out
}

// policyNames is the header of one column per policy.
func policyNames(policies []core.Policy) []string {
	out := make([]string, len(policies))
	for i, p := range policies {
		out[i] = p.String()
	}
	return out
}

// pct formats a load level as the paper's "90%" busy label.
func pct(rho float64) string { return fmt.Sprintf("%.0f%%", rho*100) }

// pollSizeSweep renders the random/poll-2/3/4/8/ideal matrix common to
// Figures 4 and 6: one generic driver, parameterized by the substrate
// that executes its cells, so the simulation and prototype sweeps are
// the same code measuring different machinery. accesses sizes each
// cell (the prototype scales cells to wall time; the simulator uses a
// flat count). Cells are mean response times in ms.
func pollSizeSweep(o Options, sub substrate.Substrate, id, title string,
	policies []core.Policy, loads []float64,
	accesses func(w workload.Workload, rho float64) int) (*Table, error) {

	t := &Table{ID: id, Title: title,
		Header: append([]string{"Workload", "Busy"}, policyNames(policies)...)}
	var rows []sweepRow
	for _, w := range workload.Paper() {
		for _, rho := range loads {
			rows = append(rows, sweepRow{
				lead: []any{w.Name, pct(rho)},
				spec: substrate.RunSpec{
					Servers:  sweepServers,
					Workload: w.ScaledTo(sweepServers, rho),
					Accesses: accesses(w, rho),
					Seed:     o.Seed,
				},
			})
		}
	}
	if err := sweep(o, sub, t, rows, policies, meanMs); err != nil {
		return nil, err
	}
	return t, nil
}
