package workload

import "finelb/internal/stats"

// Trace is a sequence of accesses in non-decreasing arrival order. It
// plays the role of the paper's recorded service traces.
type Trace []Access

// Stats are the Table 1 statistics of a trace: access count and the
// moments of the arrival-interval and service-time marginals (seconds).
type Stats struct {
	Count       int
	ArrivalMean float64
	ArrivalStd  float64
	ServiceMean float64
	ServiceStd  float64
}

// Stats computes Table 1 statistics for the trace.
func (t Trace) Stats() Stats {
	arr := stats.NewSummary(false)
	svc := stats.NewSummary(false)
	prev := 0.0
	for i, a := range t {
		if i > 0 {
			arr.Add(a.Arrival - prev)
		}
		prev = a.Arrival
		svc.Add(a.Service)
	}
	return Stats{
		Count:       len(t),
		ArrivalMean: arr.Mean(),
		ArrivalStd:  arr.Std(),
		ServiceMean: svc.Mean(),
		ServiceStd:  svc.Std(),
	}
}
