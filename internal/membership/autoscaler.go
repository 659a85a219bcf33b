package membership

import (
	"fmt"
	"time"
)

// Autoscaler policy defaults, shared by both substrates so an elastic
// run behaves the same on the simulator and the prototype.
const (
	// DefaultScaleUpAt is the per-server load (queued + in service)
	// above which the pool grows.
	DefaultScaleUpAt = 4.0
	// DefaultScaleDownAt is the utilization floor: the pool shrinks
	// only while per-server load sits below it, mirroring the
	// cluster-autoscaler rule that a node is removable only when its
	// utilization is low — not merely when the average stops climbing.
	DefaultScaleDownAt = 1.0
	// DefaultScaleUpCooldown / DefaultScaleDownCooldown are the minimum
	// gaps between consecutive scaling actions in each direction.
	// Scale-down waits longer so a transient lull does not shed
	// capacity the next burst needs back.
	DefaultScaleUpCooldown   = 2 * time.Second
	DefaultScaleDownCooldown = 8 * time.Second
	// DefaultInterval is how often the autoscaler samples load.
	DefaultInterval = 500 * time.Millisecond
)

// AutoscalerConfig is a load-threshold scaling policy: grow when the
// observed per-server load exceeds ScaleUpAt, shrink when it falls
// below ScaleDownAt, never leave [Min, Max], and respect per-direction
// cooldown windows. The zero value is inert (disabled).
type AutoscalerConfig struct {
	Min, Max int // pool size bounds; Min <= pool <= Max

	// ScaleUpAt / ScaleDownAt are per-server load thresholds
	// (outstanding accesses per active server). Scale-down only fires
	// below ScaleDownAt — a utilization floor, not a symmetric trigger.
	ScaleUpAt   float64
	ScaleDownAt float64

	// Step is how many servers one action adds or removes (default 1).
	Step int

	// ScaleUpCooldown / ScaleDownCooldown gate consecutive actions in
	// the same direction. A scale-up also resets the scale-down window,
	// so capacity just added is not immediately withdrawn.
	ScaleUpCooldown   time.Duration
	ScaleDownCooldown time.Duration

	// Interval is how often the substrate samples load and calls
	// Evaluate.
	Interval time.Duration
}

// Active reports whether the policy is enabled. A nil or zero config
// is inert: runners treat it exactly like no autoscaler at all.
func (c *AutoscalerConfig) Active() bool {
	return c != nil && c.Max > 0
}

// Validate reports whether the policy is coherent.
func (c *AutoscalerConfig) Validate() error {
	if !c.Active() {
		return nil
	}
	if c.Min < 1 {
		return fmt.Errorf("membership: autoscaler min pool %d < 1", c.Min)
	}
	if c.Max < c.Min {
		return fmt.Errorf("membership: autoscaler max pool %d < min %d", c.Max, c.Min)
	}
	if c.ScaleUpAt < 0 || c.ScaleDownAt < 0 {
		return fmt.Errorf("membership: autoscaler negative threshold (up %v, down %v)", c.ScaleUpAt, c.ScaleDownAt)
	}
	if c.ScaleDownAt > c.ScaleUpAt && c.ScaleUpAt > 0 {
		return fmt.Errorf("membership: autoscaler scale-down floor %v above scale-up threshold %v", c.ScaleDownAt, c.ScaleUpAt)
	}
	if c.Step < 0 {
		return fmt.Errorf("membership: autoscaler negative step %d", c.Step)
	}
	if c.ScaleUpCooldown < 0 || c.ScaleDownCooldown < 0 {
		return fmt.Errorf("membership: autoscaler negative cooldown")
	}
	if c.Interval < 0 {
		return fmt.Errorf("membership: autoscaler negative interval %v", c.Interval)
	}
	return nil
}

// withDefaults fills the zero fields of an active config.
func (c *AutoscalerConfig) withDefaults() AutoscalerConfig {
	out := *c
	if out.ScaleUpAt == 0 {
		out.ScaleUpAt = DefaultScaleUpAt
	}
	if out.ScaleDownAt == 0 {
		out.ScaleDownAt = DefaultScaleDownAt
	}
	if out.Step == 0 {
		out.Step = 1
	}
	if out.ScaleUpCooldown == 0 {
		out.ScaleUpCooldown = DefaultScaleUpCooldown
	}
	if out.ScaleDownCooldown == 0 {
		out.ScaleDownCooldown = DefaultScaleDownCooldown
	}
	if out.Interval == 0 {
		out.Interval = DefaultInterval
	}
	return out
}

// Autoscaler evaluates the policy over explicit timestamps. It holds
// only cooldown state; the substrate owns the pool and applies the
// returned deltas as Join/Drain/Leave events. Time is always passed in
// by the caller (the simulator's event clock or the prototype's scaled
// wall clock), never read from the system — cooldowns must replay
// deterministically.
type Autoscaler struct {
	cfg AutoscalerConfig

	lastUp   time.Duration
	lastDown time.Duration
	hasUp    bool
	hasDown  bool
}

// NewAutoscaler builds an evaluator for cfg (defaults applied). It
// returns nil for an inert config; a nil Autoscaler never scales.
func NewAutoscaler(cfg *AutoscalerConfig) *Autoscaler {
	if !cfg.Active() {
		return nil
	}
	return &Autoscaler{cfg: cfg.withDefaults()}
}

// Config returns the policy with defaults applied.
func (a *Autoscaler) Config() AutoscalerConfig { return a.cfg }

// Evaluate inspects one load sample and returns the pool delta the
// policy wants: +k to add k servers, -k to drain k, 0 to hold. now is
// the elapsed run time of the sample, pool the current active server
// count, and loadPerServer the observed outstanding accesses per
// active server. Evaluate is pure in time: the same sample sequence
// yields the same decisions on every substrate.
func (a *Autoscaler) Evaluate(now time.Duration, pool int, loadPerServer float64) int {
	if a == nil {
		return 0
	}
	c := &a.cfg
	if loadPerServer > c.ScaleUpAt && pool < c.Max {
		if a.hasUp && now-a.lastUp < c.ScaleUpCooldown {
			return 0
		}
		step := c.Step
		if pool+step > c.Max {
			step = c.Max - pool
		}
		a.lastUp, a.hasUp = now, true
		// Fresh capacity resets the shrink window so it is not
		// withdrawn before it has served a full cooldown's worth of
		// samples.
		a.lastDown, a.hasDown = now, true
		return step
	}
	if loadPerServer < c.ScaleDownAt && pool > c.Min {
		if a.hasDown && now-a.lastDown < c.ScaleDownCooldown {
			return 0
		}
		step := c.Step
		if pool-step < c.Min {
			step = pool - c.Min
		}
		a.lastDown, a.hasDown = now, true
		return -step
	}
	return 0
}
