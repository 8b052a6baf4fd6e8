package core

import "repro/internal/sim"

// Edge is the Rising Edge policy (§4.3): checkpoint whenever an upward
// movement occurs in the spot price of an executing zone, since a
// rising price signals that S may soon exceed B. ScheduleNextCheckpoint
// is a no-op because the decision is instantaneous.
type Edge struct{}

// NewEdge returns an Edge policy.
func NewEdge() *Edge { return &Edge{} }

// Name implements sim.CheckpointPolicy.
func (*Edge) Name() string { return "edge" }

// Reset implements sim.CheckpointPolicy.
func (*Edge) Reset(env *sim.Env) {}

// CheckpointCondition reports a rising edge in any up zone.
func (*Edge) CheckpointCondition(env *sim.Env) bool {
	for _, zi := range env.Spec.Zones {
		if env.Zones[zi].State == sim.Up && env.RisingEdge(zi) {
			return true
		}
	}
	return false
}

// ScheduleNextCheckpoint implements sim.CheckpointPolicy (no-op).
func (*Edge) ScheduleNextCheckpoint(env *sim.Env) {}
