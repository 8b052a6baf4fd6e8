package core

import (
	"repro/internal/changepoint"
	"repro/internal/sim"
)

// Changepoint is an extension of the paper's Edge family (§4.3–4.4):
// instead of checkpointing on every upward price tick, it runs a
// two-sided CUSUM detector per active zone and checkpoints only when a
// zone's price shows a *sustained* upward shift. This keeps Edge's
// virtue — checkpointing just before out-of-bid terminations, which
// price regimes usually precede — while shedding its documented flaw of
// burning checkpoints on noise.
type Changepoint struct {
	detectors map[int]*changepoint.Detector
}

// NewChangepoint returns the policy.
func NewChangepoint() *Changepoint { return &Changepoint{} }

// detector returns a zone's CUSUM detector centred on its price: $0.02
// per step is noise, and $0.10 of cumulative deviation is a shift.
func detector(price float64) *changepoint.Detector {
	return &changepoint.Detector{Target: price, Drift: 0.02, Threshold: 0.10}
}

// Name implements sim.CheckpointPolicy.
func (c *Changepoint) Name() string { return "changepoint" }

// Reset implements sim.CheckpointPolicy.
func (c *Changepoint) Reset(env *sim.Env) {
	c.detectors = make(map[int]*changepoint.Detector, len(env.Spec.Zones))
	for _, zi := range env.Spec.Zones {
		c.detectors[zi] = detector(env.PriceNow(zi))
	}
}

// CheckpointCondition feeds each up zone's price to its detector and
// triggers on a sustained upward shift.
func (c *Changepoint) CheckpointCondition(env *sim.Env) bool {
	fire := false
	for _, zi := range env.Spec.Zones {
		z := &env.Zones[zi]
		if z.State != sim.Up {
			continue
		}
		d, ok := c.detectors[z.Index]
		if !ok {
			d = detector(env.PriceNow(z.Index))
			c.detectors[z.Index] = d
		}
		if d.Observe(env.PriceNow(z.Index)) == changepoint.Up {
			fire = true
		}
	}
	return fire
}

// ScheduleNextCheckpoint implements sim.CheckpointPolicy (no-op: the
// decision is event-driven, as with Edge).
func (c *Changepoint) ScheduleNextCheckpoint(env *sim.Env) {}
