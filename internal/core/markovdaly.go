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
	// Quantum buckets prices before fitting (0.05 by default) to bound
	// the state count on volatile histories; <= 0 disables bucketing.
	Quantum float64
	// HigherOrder selects Daly's higher-order estimate (default) over
	// Young's first-order one; the ablation bench flips this.
	HigherOrder bool

	// fitter fits chains without markov.Fit's per-call maps; safe as an
	// instance field because policy hooks run on one goroutine. Fits
	// recycle per-zone scratch models that die with computeInterval.
	fitter  markov.Fitter
	scratch []*markov.Model

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
	return &MarkovDaly{HistorySpan: markov.DefaultHistory, Quantum: 0.05, HigherOrder: true}
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

// computeInterval fits the per-zone chains and applies
// Daly's estimate to their combined expected uptime.
func (m *MarkovDaly) computeInterval(env *sim.Env) float64 {
	span := m.HistorySpan
	if span <= 0 {
		span = markov.DefaultHistory
	}
	models := make([]*markov.Model, 0, len(env.Spec.Zones))
	prices := make([]float64, 0, len(env.Spec.Zones))
	for pos, zi := range env.Spec.Zones {
		mod := m.fitZone(env, zi, span, pos)
		if mod == nil {
			continue
		}
		models = append(models, mod)
		prices = append(prices, env.PriceNow(zi))
	}
	if len(models) == 0 {
		return math.Inf(1)
	}
	mtbf := markov.CombinedExpectedUptime(models, env.Spec.Bid, prices)
	tc := float64(env.CheckpointCost())
	if m.HigherOrder {
		return daly.Optimal(tc, mtbf)
	}
	return daly.Young(tc, mtbf)
}

// fitZone fits the zone's chain on the trailing span of history; nil
// reports an unfittable (empty) history. pos is the zone's position in
// the spec, selecting the scratch model the fit recycles.
func (m *MarkovDaly) fitZone(env *sim.Env, zi int, span int64, pos int) *markov.Model {
	for len(m.scratch) <= pos {
		m.scratch = append(m.scratch, nil)
	}
	mod, err := m.fitter.Fit(m.quantized(env, zi, span), env.Step, m.scratch[pos])
	if err != nil {
		return nil
	}
	m.scratch[pos] = mod
	return mod
}

// quantized samples the zone's trailing history and buckets it in place
// (PriceHistory returns a fresh slice, so no shared storage is touched).
func (m *MarkovDaly) quantized(env *sim.Env, zi int, span int64) []float64 {
	hist := env.PriceHistory(zi, span)
	if m.Quantum > 0 {
		for i, p := range hist {
			hist[i] = math.Round(p/m.Quantum) * m.Quantum
		}
	}
	return hist
}
