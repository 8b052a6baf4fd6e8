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

	// Per trace zone, the sliding chain fit; solver prices the fitted
	// chains without per-call allocations. Both are safe as instance
	// state because policy hooks run on one goroutine.
	zones  []zoneChain
	solver markov.UptimeSolver

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
	for i := range m.zones {
		m.zones[i].live = false
	}
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
	if len(m.zones) < len(env.Zones) {
		m.zones = make([]zoneChain, len(env.Zones))
	}
	fitted := false
	var mtbf float64
	for _, zi := range env.Spec.Zones {
		mod := m.fitZone(env, zi, span)
		if mod == nil {
			continue
		}
		fitted = true
		u := m.solver.ExpectedUptime(mod, env.Spec.Bid, env.PriceNow(zi))
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

// zoneChain is one zone's sliding chain fit: the window fitter over the
// zone's prices on the fit grid base, base+Step, …. Each fit appends
// through Env.Price only the samples added since the previous one. That
// is exact because prices already read never change: Now only advances
// within a run, and a live trace only grows by append beyond it.
type zoneChain struct {
	base  int64
	live  bool // fit holds this run's prices
	fit   markov.WindowFitter
	model *markov.Model
}

// fitZone fits the zone's chain on the trailing span of history — the
// samples Env.PriceHistory returns — and returns nil for an empty
// history. The fitter restarts on the window after a Reset, when the
// window start falls outside the fitter's samples or off its grid (the
// Env.HistoryStart clamp can do that); it forgets the samples behind
// each window it fits, so it holds O(span) ids.
func (m *MarkovDaly) fitZone(env *sim.Env, zi int, span int64) *markov.Model {
	from := max(env.Now-span+env.Step, env.HistoryStart())
	if from > env.Now {
		return nil
	}
	z := &m.zones[zi]
	lo := int((from - z.base) / env.Step)
	if !z.live || (from-z.base)%env.Step != 0 || lo < z.fit.Forgotten() || lo >= z.fit.Len() {
		z.fit.Init(env.PriceHistory(zi, span), env.Step)
		z.base, z.live, lo = from, true, 0
	}
	hi := lo + int((env.Now-from)/env.Step) + 1
	for i := z.fit.Len(); i < hi; i++ {
		z.fit.Append(env.Price(zi, z.base+int64(i)*env.Step))
	}
	mod, err := z.fit.Fit(lo, hi, z.model)
	if err != nil {
		return nil
	}
	z.fit.Forget(lo)
	z.model = mod
	return mod
}
