package core

import (
	"fmt"

	"repro/internal/sim"
)

// Static is a strategy that never changes its configuration: one bid,
// one zone set, one policy, as in the paper's §4 evaluation.
type Static struct {
	Label string
	Spec  sim.RunSpec
}

// NewStatic wraps a spec in a static strategy.
func NewStatic(label string, spec sim.RunSpec) *Static {
	return &Static{Label: label, Spec: spec}
}

// SingleZone builds a static single-zone strategy.
func SingleZone(policy sim.CheckpointPolicy, bid float64, zone int) *Static {
	return &Static{
		Label: fmt.Sprintf("%s/z%d", policy.Name(), zone),
		Spec:  sim.RunSpec{Bid: bid, Zones: []int{zone}, Policy: policy},
	}
}

// Redundant builds a static strategy over several zones (the paper's
// redundancy-based variant of a policy).
func Redundant(policy sim.CheckpointPolicy, bid float64, zones []int) *Static {
	return &Static{
		Label: fmt.Sprintf("redundant-%s/n%d", policy.Name(), len(zones)),
		Spec:  sim.RunSpec{Bid: bid, Zones: zones, Policy: policy},
	}
}

// Name implements sim.Strategy.
func (s *Static) Name() string { return s.Label }

// Begin implements sim.Strategy.
func (s *Static) Begin(env *sim.Env) sim.RunSpec { return s.Spec }

// Reconsider implements sim.Strategy: a static strategy never switches.
func (s *Static) Reconsider(env *sim.Env, events []sim.Event) (sim.RunSpec, bool) {
	return sim.RunSpec{}, false
}

// NewOnDemandOnly returns the on-demand baseline: an empty zone set,
// which makes the engine run the whole job on-demand immediately — the
// fixed-cost line every figure references as the $48 grey line (20 h ×
// $2.40/h).
func NewOnDemandOnly() *Static { return NewStatic("on-demand", sim.RunSpec{}) }
