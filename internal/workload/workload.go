// Package workload defines the three evaluation workloads of the paper
// (§1.1): the synthetic Poisson/Exp workload and synthetic equivalents
// of the two proprietary Teoma search-engine traces ("Medium-Grain" and
// "Fine-Grain"), plus trace generation and the demand (load-level)
// rescaling the paper applies to its traces.
//
// The real traces are not publicly available, so the trace workloads
// here are generated from lognormal marginals matched to the published
// Table 1 moments; see DESIGN.md §4 for the substitution argument.
package workload

import (
	"fmt"

	"finelb/internal/stats"
)

// Published Table 1 statistics (seconds). Values marked "restored" were
// damaged by OCR in the available text and are reconstructed in
// DESIGN.md §4.
const (
	// MediumGrainServiceMean is the Medium-Grain trace mean service time.
	MediumGrainServiceMean = 28.9e-3
	// MediumGrainServiceStd is the Medium-Grain service-time std-dev.
	MediumGrainServiceStd = 62.9e-3
	// MediumGrainArrivalStd is the Medium-Grain arrival-interval std-dev.
	MediumGrainArrivalStd = 321.1e-3

	// FineGrainServiceMean is the Fine-Grain trace mean service time (restored).
	FineGrainServiceMean = 2.22e-3
	// FineGrainServiceStd is the Fine-Grain service-time std-dev (restored).
	FineGrainServiceStd = 1.0e-3
	// FineGrainArrivalStd is the Fine-Grain arrival-interval std-dev.
	FineGrainArrivalStd = 349.4e-3

	// TraceArrivalCV is the assumed coefficient of variation of the
	// native trace arrival processes (the arrival-interval means did not
	// survive OCR; peak-hour traffic is moderately bursty).
	TraceArrivalCV = 2.0

	// PoissonExpServiceMean is the mean service time the paper uses for
	// the Poisson/Exp workload in the 16-server experiments (restored).
	PoissonExpServiceMean = 50e-3
)

// Access is one service access: its arrival offset from the start of
// the run and its service demand, both in seconds.
type Access struct {
	Arrival float64
	Service float64
}

// Workload is a stochastic workload: an inter-arrival distribution and
// a service-time distribution. The aggregate arrival process is the
// cluster-wide one; experiments split it across client nodes.
type Workload struct {
	Name    string
	Arrival stats.Dist
	Service stats.Dist
}

// PoissonExp returns the paper's synthetic workload: Poisson arrivals
// and exponentially distributed service times with the given mean.
// The arrival rate is a placeholder (mean interval = mean service);
// call ScaledTo before use.
func PoissonExp(meanService float64) Workload {
	return Workload{
		Name:    "Poisson/Exp",
		Arrival: stats.Exponential{MeanValue: meanService},
		Service: stats.Exponential{MeanValue: meanService},
	}
}

// MediumGrain returns the synthetic equivalent of the paper's
// Medium-Grain Teoma trace (word/description translation service,
// mean service 28.9 ms).
func MediumGrain() Workload {
	arrMean := MediumGrainArrivalStd / TraceArrivalCV
	return Workload{
		Name:    "Medium-Grain trace",
		Arrival: stats.LognormalFromMoments(arrMean, MediumGrainArrivalStd),
		Service: stats.LognormalFromMoments(MediumGrainServiceMean, MediumGrainServiceStd),
	}
}

// FineGrain returns the synthetic equivalent of the paper's Fine-Grain
// Teoma trace (query-word translation service, mean service 2.22 ms).
func FineGrain() Workload {
	arrMean := FineGrainArrivalStd / TraceArrivalCV
	return Workload{
		Name:    "Fine-Grain trace",
		Arrival: stats.LognormalFromMoments(arrMean, FineGrainArrivalStd),
		Service: stats.LognormalFromMoments(FineGrainServiceMean, FineGrainServiceStd),
	}
}

// Paper returns the three workloads of the paper's evaluation, in the
// order its figures present them.
func Paper() []Workload {
	return []Workload{MediumGrain(), PoissonExp(PoissonExpServiceMean), FineGrain()}
}

// ScaledTo returns a copy of w whose aggregate arrival rate produces
// per-server utilization rho on a cluster of nServers, preserving the
// arrival process's coefficient of variation. This mirrors the paper:
// "the arrival intervals of those two traces may be scaled when
// necessary to generate workloads at various demand levels".
func (w Workload) ScaledTo(nServers int, rho float64) Workload {
	if nServers <= 0 {
		panic("workload: ScaledTo with nServers <= 0")
	}
	if rho <= 0 || rho >= 1 {
		panic(fmt.Sprintf("workload: ScaledTo with rho %v out of (0,1)", rho))
	}
	// Target aggregate arrival rate: nServers * rho / E[S].
	wantMeanInterval := w.Service.Mean() / (float64(nServers) * rho)
	factor := wantMeanInterval / w.Arrival.Mean()
	out := w
	out.Arrival = stats.Scaled{D: w.Arrival, Factor: factor}
	return out
}

// Utilization returns the per-server utilization w induces on a cluster
// of nServers under perfect balancing: E[S] / (n * E[A]).
func (w Workload) Utilization(nServers int) float64 {
	return w.Service.Mean() / (float64(nServers) * w.Arrival.Mean())
}

func (w Workload) String() string {
	return fmt.Sprintf("%s{arrival=%v, service=%v}", w.Name, w.Arrival, w.Service)
}

// Stream produces the workload's accesses one at a time, in arrival
// order, deterministically from the seed.
type Stream struct {
	w    Workload
	rng  *stats.RNG
	next float64
}

// Stream returns a fresh access stream for w. Stateful distributions
// (bursty arrival processes) are forked so concurrent or repeated
// streams from the same Workload stay independent.
func (w Workload) Stream(seed uint64) *Stream {
	forked := w
	forked.Arrival = stats.ForkDist(w.Arrival)
	forked.Service = stats.ForkDist(w.Service)
	return &Stream{w: forked, rng: stats.NewRNG(seed)}
}

// Next returns the next access. The first access arrives after one
// inter-arrival interval, not at time zero.
func (s *Stream) Next() Access {
	s.next += s.w.Arrival.Sample(s.rng)
	return Access{Arrival: s.next, Service: s.w.Service.Sample(s.rng)}
}

// Generate materializes a trace of n accesses from w.
func (w Workload) Generate(n int, seed uint64) Trace {
	st := w.Stream(seed)
	tr := make(Trace, n)
	for i := range tr {
		tr[i] = st.Next()
	}
	return tr
}

// WithDiurnalArrivals replaces the workload's arrival process with a
// time-inhomogeneous Poisson one that has the same long-run mean
// inter-arrival time but a sinusoidal day/night rate swing of depth amp
// over one period: the run starts at the trough, peaks at period/2 at
// (1+amp)x the average rate, and subsides. This is the open-loop trace
// the elastic experiments drive the autoscaler with. Apply it after
// ScaledTo so the average rate matches the demand target.
func (w Workload) WithDiurnalArrivals(amp, period float64) Workload {
	out := w
	out.Name = fmt.Sprintf("%s (diurnal amp %g)", w.Name, amp)
	out.Arrival = stats.NewDiurnal(w.Arrival.Mean(), amp, period)
	return out
}

// WithBurstyArrivals replaces the workload's arrival process with a
// Markov-modulated (two-phase) one that has the same mean inter-arrival
// time but correlated bursts of intensity `burst` (busy spells of
// `meanRun` arrivals at burst-times the average rate alternating with
// calm spells). burst = 1 leaves the rate constant. Used by the A5
// burstiness ablation: real traces are bursty beyond their marginal CV.
func (w Workload) WithBurstyArrivals(burst, meanRun float64) Workload {
	out := w
	out.Name = fmt.Sprintf("%s (burst x%g)", w.Name, burst)
	out.Arrival = stats.PhasedBurstyExp(w.Arrival.Mean(), burst, meanRun)
	return out
}
