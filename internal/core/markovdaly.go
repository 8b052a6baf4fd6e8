package core

import (
	"math"

	"repro/internal/daly"
	"repro/internal/markov"
	"repro/internal/sim"
)

// MarkovDaly is the §4.2 policy: a Markov chain over discretised spot
// prices (Appendix B) predicts the expected instance uptime E[T_u] at
// the current bid; Daly's equation converts that MTBF and the
// checkpoint cost into the optimal checkpoint interval. For N redundant
// zones with independent prices the combined E[T_u] is the per-zone
// sum, so redundancy lowers the checkpoint frequency.
type MarkovDaly struct {
	// HistorySpan is how much trailing price history feeds the chain;
	// zero selects the paper's 2 days.
	HistorySpan int64
	// HigherOrder selects Daly's higher-order estimate (default) over
	// Young's first-order one; the ablation bench flips this.
	HigherOrder bool

	// Last interval computation, memoized by decision time:
	// the interval is a pure function of the env state at a given Now
	// for a fixed spec, and the engine Resets the policy whenever the
	// spec changes, so a repeated query at the same Now (schedule after
	// a checkpoint commit within one step, say) can reuse the value.
	lastNow  int64
	lastIval float64
	lastOK   bool

	ts int64 // scheduled checkpoint time T_s
}

// NewMarkovDaly returns the policy with the paper's defaults.
func NewMarkovDaly() *MarkovDaly {
	return &MarkovDaly{HistorySpan: markov.DefaultHistory, HigherOrder: true}
}

// Name implements sim.CheckpointPolicy.
func (m *MarkovDaly) Name() string { return "markov-daly" }

// Reset implements sim.CheckpointPolicy.
func (m *MarkovDaly) Reset(env *sim.Env) {
	m.lastOK = false
	m.schedule(env)
}

// CheckpointCondition reports T = T_s.
func (m *MarkovDaly) CheckpointCondition(env *sim.Env) bool {
	return env.Now >= m.ts
}

// ScheduleNextCheckpoint recomputes E[T_u] and T_s.
func (m *MarkovDaly) ScheduleNextCheckpoint(env *sim.Env) { m.schedule(env) }

func (m *MarkovDaly) schedule(env *sim.Env) {
	interval := m.interval(env)
	if math.IsInf(interval, 1) {
		// The chain predicts no failure at this bid: fall back to one
		// checkpoint per remaining-work horizon (effectively never).
		m.ts = env.Deadline()
		return
	}
	m.ts = env.Now + int64(interval)
}

// interval returns Daly's optimal checkpoint interval in seconds for
// the current configuration.
func (m *MarkovDaly) interval(env *sim.Env) float64 {
	if m.lastOK && env.Now == m.lastNow {
		return m.lastIval
	}
	v := m.computeInterval(env)
	m.lastNow, m.lastIval, m.lastOK = env.Now, v, true
	return v
}

// computeInterval fits the per-zone chains and applies Daly's estimate
// to their combined expected uptime, the per-zone sum of
// markov.CombinedExpectedUptime, which stops at the first unbounded
// zone.
func (m *MarkovDaly) computeInterval(env *sim.Env) float64 {
	span := m.HistorySpan
	if span <= 0 {
		span = markov.DefaultHistory
	}
	fitted := false
	var mtbf float64
	for _, zi := range env.Spec.Zones {
		u, ok := env.ChainUptime(zi, span, env.Spec.Bid, env.PriceNow(zi))
		if !ok {
			continue
		}
		fitted = true
		if math.IsInf(u, 1) {
			mtbf = u
			break
		}
		mtbf += u
	}
	if !fitted {
		return math.Inf(1)
	}
	tc := float64(env.CheckpointCost())
	if m.HigherOrder {
		return daly.Optimal(tc, mtbf)
	}
	return daly.Young(tc, mtbf)
}
