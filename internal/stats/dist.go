package stats

import (
	"fmt"
	"math"
)

// Dist is a continuous, non-negative probability distribution from which
// arrival intervals and service times are drawn.
//
// Sample draws one value using the supplied generator. Mean and Std
// report the distribution's analytic first moment and standard
// deviation, which experiments use for sanity checks and for demand
// scaling.
type Dist interface {
	Sample(r *RNG) float64
	Mean() float64
	Std() float64
	String() string
}

// CV returns the coefficient of variation (stddev / mean) of d.
// It returns 0 for a zero-mean distribution.
func CV(d Dist) float64 {
	if m := d.Mean(); m != 0 {
		return d.Std() / m
	}
	return 0
}

// Deterministic is a degenerate distribution that always yields Value.
type Deterministic struct{ Value float64 }

// Sample returns Value regardless of r.
func (d Deterministic) Sample(*RNG) float64 { return d.Value }

// Mean returns Value.
func (d Deterministic) Mean() float64 { return d.Value }

// Std returns 0.
func (d Deterministic) Std() float64 { return 0 }

func (d Deterministic) String() string { return fmt.Sprintf("Det(%g)", d.Value) }

// Exponential is the exponential distribution with the given mean
// (rate 1/MeanValue). It models Poisson-process inter-arrival times and
// the paper's "Exp" service times.
type Exponential struct{ MeanValue float64 }

// Sample draws an exponential deviate.
func (d Exponential) Sample(r *RNG) float64 { return d.MeanValue * r.ExpFloat64() }

// Mean returns the distribution mean.
func (d Exponential) Mean() float64 { return d.MeanValue }

// Std returns the standard deviation (equal to the mean).
func (d Exponential) Std() float64 { return d.MeanValue }

func (d Exponential) String() string { return fmt.Sprintf("Exp(mean=%g)", d.MeanValue) }

// Lognormal is the lognormal distribution parameterized by the
// underlying normal's Mu and Sigma: exp(Mu + Sigma*Z).
//
// The synthetic Teoma-like traces use lognormal marginals because prior
// workload studies (Feldmann; Harchol-Balter & Downey, cited in the
// paper) model network-service times and arrivals as Lognormal, Weibull,
// or Pareto, and the lognormal is the one fully determined by the two
// published moments in Table 1.
type Lognormal struct{ Mu, Sigma float64 }

// LognormalFromMoments returns the lognormal distribution with the
// requested mean and standard deviation.
func LognormalFromMoments(mean, std float64) Lognormal {
	if mean <= 0 {
		panic("stats: lognormal requires positive mean")
	}
	cv := std / mean
	sigma2 := math.Log(1 + cv*cv)
	return Lognormal{
		Mu:    math.Log(mean) - sigma2/2,
		Sigma: math.Sqrt(sigma2),
	}
}

// Sample draws a lognormal deviate.
func (d Lognormal) Sample(r *RNG) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// Mean returns exp(Mu + Sigma^2/2).
func (d Lognormal) Mean() float64 { return math.Exp(d.Mu + d.Sigma*d.Sigma/2) }

// Std returns the analytic standard deviation.
func (d Lognormal) Std() float64 {
	s2 := d.Sigma * d.Sigma
	return math.Sqrt((math.Exp(s2) - 1)) * d.Mean()
}

func (d Lognormal) String() string {
	return fmt.Sprintf("Lognormal(mean=%.4g,std=%.4g)", d.Mean(), d.Std())
}

// Pareto is the (Lomax-shifted, scale Xm) Pareto distribution with shape
// Alpha: P(X > x) = (Xm/x)^Alpha for x >= Xm. Heavy-tailed workloads in
// the literature use Alpha slightly above 1.
type Pareto struct {
	Xm    float64 // scale (minimum value), > 0
	Alpha float64 // shape, > 0
}

// Sample draws a Pareto deviate by inversion.
func (d Pareto) Sample(r *RNG) float64 {
	return d.Xm / math.Pow(r.Float64Open(), 1/d.Alpha)
}

// Mean returns the analytic mean, or +Inf when Alpha <= 1.
func (d Pareto) Mean() float64 {
	if d.Alpha <= 1 {
		return math.Inf(1)
	}
	return d.Alpha * d.Xm / (d.Alpha - 1)
}

// Std returns the analytic standard deviation, or +Inf when Alpha <= 2.
func (d Pareto) Std() float64 {
	if d.Alpha <= 2 {
		return math.Inf(1)
	}
	return d.Xm / (d.Alpha - 1) * math.Sqrt(d.Alpha/(d.Alpha-2))
}

func (d Pareto) String() string { return fmt.Sprintf("Pareto(xm=%g,alpha=%g)", d.Xm, d.Alpha) }

// Scaled wraps a distribution, multiplying every sample (and the
// analytic moments) by Factor. Experiments use it to rescale trace
// arrival intervals to a target demand level, exactly as the paper
// rescales its traces.
type Scaled struct {
	D      Dist
	Factor float64
}

// Sample draws from the underlying distribution and scales the result.
func (d Scaled) Sample(r *RNG) float64 { return d.Factor * d.D.Sample(r) }

// Fork implements Forker by forking the wrapped distribution, so a
// scaled stateful process still gets independent per-stream state.
func (d Scaled) Fork() Dist { return Scaled{D: ForkDist(d.D), Factor: d.Factor} }

// Mean returns Factor times the underlying mean.
func (d Scaled) Mean() float64 { return d.Factor * d.D.Mean() }

// Std returns Factor times the underlying standard deviation.
func (d Scaled) Std() float64 { return d.Factor * d.D.Std() }

func (d Scaled) String() string { return fmt.Sprintf("%v x %g", d.D, d.Factor) }
