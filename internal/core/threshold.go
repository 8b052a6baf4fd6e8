package core

import (
	"slices"

	"repro/internal/sim"
)

// Threshold is the §4.4 two-threshold refinement of Edge (after Jung et
// al.): a checkpoint is taken when either
//
//  1. the price shows a rising edge and has crossed the price threshold
//     PriceThresh = (S_min + B) / 2, or
//  2. the execution time at the current bid since the most recent
//     restart or checkpoint exceeds the zone's probabilistic average
//     uptime (TimeThresh).
type Threshold struct {
	// timeThresh holds, by trace zone, each active zone's average
	// observed uptime at the current bid, computed from history at Reset.
	timeThresh []float64
}

// NewThreshold returns a Threshold policy.
func NewThreshold() *Threshold { return &Threshold{} }

// Name implements sim.CheckpointPolicy.
func (t *Threshold) Name() string { return "threshold" }

// Reset computes each zone's TimeThresh: the mean length of its up
// intervals at the current bid over the available history.
func (t *Threshold) Reset(env *sim.Env) {
	t.timeThresh = slices.Grow(t.timeThresh[:0], len(env.Zones))[:len(env.Zones)]
	for _, zi := range env.Spec.Zones {
		t.timeThresh[zi] = meanUptime(env, zi, env.Spec.Bid)
	}
}

// meanUptime returns the average up-interval length in seconds of the
// zone's price history up to now at the given bid, read in place on the
// step grid Env.ChainUptime's windows sample; 0 when never up.
func meanUptime(env *sim.Env, zone int, bid float64) float64 {
	var total, runs int64
	var cur int64
	for at := max(env.Now-0x7fffffff+env.Step, env.HistoryStart()); at <= env.Now; at += env.Step {
		if env.Price(zone, at) <= bid {
			cur++
		} else if cur > 0 {
			total += cur
			runs++
			cur = 0
		}
	}
	if cur > 0 {
		total += cur
		runs++
	}
	if runs == 0 {
		return 0
	}
	return float64(total*env.Step) / float64(runs)
}

// CheckpointCondition implements the two-threshold trigger.
func (t *Threshold) CheckpointCondition(env *sim.Env) bool {
	for _, zi := range env.Spec.Zones {
		z := &env.Zones[zi]
		if z.State != sim.Up {
			continue
		}
		s := env.PriceNow(z.Index)
		priceThresh := (env.MinObservedPrice(z.Index) + env.Spec.Bid) / 2
		if env.RisingEdge(z.Index) && s >= priceThresh {
			return true
		}
		since := env.LastCheckpointAt
		if z.UpSince > since {
			since = z.UpSince
		}
		if tt := t.timeThresh[z.Index]; tt > 0 && float64(env.Now-since) > tt {
			return true
		}
	}
	return false
}

// ScheduleNextCheckpoint implements sim.CheckpointPolicy (immediate
// checkpoints only, so nothing to plan).
func (t *Threshold) ScheduleNextCheckpoint(env *sim.Env) {}
