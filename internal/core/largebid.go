package core

import (
	"slices"

	"repro/internal/sim"
	"repro/internal/trace"
)

// LargeBid is the §7.2.2 policy (after Khatua et al.): bid an amount
// the spot price will essentially never reach (so EC2 never terminates
// the instance) and control cost with a user threshold L. If the spot
// price S moves above L, the instance is allowed to finish the ongoing
// hour; if S is still above L near the hour's end, a checkpoint is
// taken and the instance is manually terminated, to be restarted once
// S falls back below L. It is strictly single-zone and provides no
// upper bound on cost — a price spike is paid at full spot rate for the
// hour in which it occurs.
type LargeBid struct {
	// L is the cost-control threshold; +Inf is the paper's "Naive"
	// variant that never releases.
	L float64

	lastHourEnd int64 // billing hour already checkpointed
}

// NewLargeBid returns the policy with threshold l.
func NewLargeBid(l float64) *LargeBid { return &LargeBid{L: l} }

// Name implements sim.CheckpointPolicy.
func (lb *LargeBid) Name() string { return "large-bid" }

// Reset implements sim.CheckpointPolicy.
func (lb *LargeBid) Reset(env *sim.Env) { lb.lastHourEnd = 0 }

// overThresholdNearHourEnd reports whether the zone is both above the
// threshold and close enough to its billing-hour boundary that a
// checkpoint must start now to complete within the paid hour.
func (lb *LargeBid) overThresholdNearHourEnd(env *sim.Env, z *sim.ZoneState) bool {
	if z.Meter == nil || env.PriceNow(z.Index) <= lb.L {
		return false
	}
	remaining := z.Meter.HourStart() + trace.Hour - env.Now
	return remaining > 0 && remaining <= env.CheckpointCost()+env.Step
}

// CheckpointCondition takes the pre-release checkpoint.
func (lb *LargeBid) CheckpointCondition(env *sim.Env) bool {
	for _, zi := range env.Spec.Zones {
		z := &env.Zones[zi]
		if z.State != sim.Up || !lb.overThresholdNearHourEnd(env, z) {
			continue
		}
		hourEnd := z.Meter.HourStart() + trace.Hour
		if hourEnd == lb.lastHourEnd {
			continue
		}
		lb.lastHourEnd = hourEnd
		return true
	}
	return false
}

// ScheduleNextCheckpoint implements sim.CheckpointPolicy (no-op).
func (lb *LargeBid) ScheduleNextCheckpoint(env *sim.Env) {}

// ShouldRelease implements sim.Releaser: manually terminate once the
// pre-release checkpoint has landed (nothing uncommitted) while the
// price is still above the threshold near the hour end.
func (lb *LargeBid) ShouldRelease(env *sim.Env, zone int) bool {
	if !slices.Contains(env.Spec.Zones, zone) {
		return false
	}
	z := &env.Zones[zone]
	if z.State != sim.Up || !lb.overThresholdNearHourEnd(env, z) {
		return false
	}
	return z.Progress <= env.Committed
}

// MayStart implements sim.Admission: do not (re)start while the spot
// price exceeds the threshold.
func (lb *LargeBid) MayStart(env *sim.Env, zone int) bool {
	return env.PriceNow(zone) <= lb.L
}

// Compile-time checks for the optional engine extensions.
var (
	_ sim.Releaser  = (*LargeBid)(nil)
	_ sim.Admission = (*LargeBid)(nil)
)
