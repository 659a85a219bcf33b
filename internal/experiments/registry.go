package experiments

import (
	"fmt"
	"sort"
)

// Runner is one experiment driver.
type Runner func(Options) (*Table, error)

// registryEntry pairs a runner with its one-line description.
type registryEntry struct {
	run  Runner
	desc string
}

var registry = map[string]registryEntry{
	"table1":       {Table1, "Table 1: statistics of evaluation traces"},
	"figure2":      {Figure2, "Figure 2: load-index inaccuracy vs dissemination delay"},
	"figure3":      {Figure3, "Figure 3: broadcast frequency sweep (simulation)"},
	"figure4":      {Figure4, "Figure 4: poll-size sweep (simulation)"},
	"figure6":      {Figure6, "Figure 6: poll-size sweep (prototype, real sockets)"},
	"table2":       {Table2, "Table 2: discarding slow-responding polls"},
	"upperbound":   {Upperbound, "E1: Equation 1 staleness bound validation"},
	"pollprofile":  {PollProfile, "P1: poll completion-time profile (section 3.2)"},
	"flocking":     {Flocking, "A1: broadcast flocking-effect ablation"},
	"syncablation": {SyncAblation, "A2: fixed vs jittered broadcast intervals"},
	"messages":     {Messages, "A3: message-overhead scaling (section 2.4)"},
	"failover":     {Failover, "Soft-state failover demonstration"},
	"leastconn":    {LeastConn, "A4: client-local least-connections comparison"},
	"burstiness":   {Burstiness, "A5: arrival burstiness sweep"},
	"degraded":     {Degraded, "Degraded mode: crashes + poll loss on both substrates"},
	"elastic":      {Elastic, "Elastic membership: autoscaler on a diurnal trace, both substrates"},
	"hetchurn":     {HetChurn, "Heterogeneous cluster + churn: non-monotone poll-size row (simulation)"},
	"gateway":      {Gateway, "Gateway: HTTP front door end to end (admission, rate limiting, sticky routing)"},
	"simscale":     {SimScale, "SC1: simulator hot-path throughput at O(10k) servers (events/sec)"},
	"pollpath":     {PollPath, "PP1: prototype poll hot-path throughput on the mem fabric (polls/sec)"},
}

// Get looks up an experiment by id.
func Get(id string) (Runner, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (try one of %v)", id, IDs())
	}
	return e.run, nil
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of an experiment id, or an
// error for ids the registry does not know.
func Describe(id string) (string, error) {
	e, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (try one of %v)", id, IDs())
	}
	return e.desc, nil
}
