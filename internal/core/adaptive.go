package core

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PolicyFactory builds a fresh checkpoint policy instance. Adaptive
// candidates need fresh instances because policies hold run state.
type PolicyFactory struct {
	// Kind names the policy family ("periodic", "markov-daly").
	Kind string
	// New constructs an instance.
	New func() sim.CheckpointPolicy
}

// DefaultAdaptiveCandidates returns the policy families the Adaptive
// scheme chooses among. Edge and Threshold are excluded, as the paper
// drops them after §6 for their high recovery costs; Large-bid is
// excluded because it has no cost bound (§7.2.2).
func DefaultAdaptiveCandidates() []PolicyFactory {
	return []PolicyFactory{
		{Kind: "periodic", New: func() sim.CheckpointPolicy { return NewPeriodic() }},
		{Kind: "markov-daly", New: func() sim.CheckpointPolicy { return NewMarkovDaly() }},
	}
}

// Adaptive is the paper's §7 scheme: at each decision point (a zone
// terminated out-of-bid, or a billing hour ended) it simulates every
// permutation of bid price B, zone count N and candidate policy against
// recent price history, predicts each permutation's remaining cost via
// Inequality (1) — splitting the remaining time between the spot market
// at the observed progress rate and an on-demand tail — and switches to
// the least-cost permutation. The engine's deadline guard independently
// preserves the completion-time guarantee.
type Adaptive struct {
	// Bids is the candidate bid grid; nil selects the paper's grid
	// ($0.27–$3.07 step $0.20).
	Bids []float64
	// MaxZones bounds the redundancy degree N; 0 selects 3.
	MaxZones int
	// Candidates are the policy families; nil selects the defaults.
	// Every factory must build a *Periodic or a *MarkovDaly, the
	// families the batched engine replays; it panics on any other
	// policy type.
	Candidates []PolicyFactory
	// EstimationWindow is how much trailing history each permutation is
	// simulated over; 0 selects 12 hours.
	EstimationWindow int64
	// ReDecideOnHourOnly restricts decisions to hour boundaries,
	// ignoring kills; used by the decision-trigger ablation.
	ReDecideOnHourOnly bool
	// Eval is the evaluation service the permutation search runs on;
	// nil selects a default evaluator with GOMAXPROCS workers. Results
	// are independent of the worker count.
	Eval *Evaluator
	// Headroom is the near-tie band as a fraction of the least predicted
	// cost: among candidates within (1+Headroom) of the minimum the
	// strategy prefers bid headroom, then fewer zones. 0 selects the
	// default 0.03. It is one of the hyperparameters cmd/policytune
	// searches over.
	Headroom float64
	// Churn is the incumbent-retention tolerance: the current
	// configuration is kept while it predicts within (1+Churn) of the
	// best candidate, damping switch churn from estimation noise. 0
	// selects the default 0.02. Searched by cmd/policytune.
	Churn float64
	// Sink, when non-nil, receives one DecisionPoint per decision with
	// the chosen permutation and the full ranked rival grid. The point's
	// slices alias per-decision scratch; the sink must copy what it
	// keeps. Nil costs nothing.
	Sink DecisionSink

	chosen sim.RunSpec
	// chosenNew builds a fresh instance of chosen's policy with the
	// same parameters, so churn damping re-prices the incumbent as it
	// actually runs.
	chosenNew func() sim.CheckpointPolicy
	decSeq    int

	// rankBuf is the reusable best-first alternative list handed to
	// Sink; valid only during the RecordDecision call.
	rankBuf []DecisionAlt

	// Per-decision scratch, reused across decision points: the scored
	// candidate grid, the measurement specs handed to the evaluator, and
	// the measurement policy instances (safe to reuse because the engine
	// resets policy state at replay start and the evaluator does not
	// retain them).
	candBuf []candidate
	specBuf []sim.RunSpec
	polBuf  []policySlot
}

// policySlot is one reusable measurement-policy instance, tagged with
// the index of its factory so a reshaped candidate grid rebuilds
// mismatched slots.
type policySlot struct {
	fac int
	pol sim.CheckpointPolicy
}

// NewAdaptive returns the Adaptive strategy with the paper's settings.
func NewAdaptive() *Adaptive { return &Adaptive{} }

// Name implements sim.Strategy.
func (a *Adaptive) Name() string { return "adaptive" }

// Begin implements sim.Strategy: bootstrap from the price history
// preceding the experiment (the paper primes with 2 days) and pick the
// initial permutation.
func (a *Adaptive) Begin(env *sim.Env) sim.RunSpec {
	a.decSeq = 0
	a.chosen, a.chosenNew = a.pick(env, TriggerBegin)
	return a.chosen
}

// Reconsider implements sim.Strategy.
func (a *Adaptive) Reconsider(env *sim.Env, events []sim.Event) (sim.RunSpec, bool) {
	if a.ReDecideOnHourOnly {
		hour := false
		for _, ev := range events {
			if ev.Kind == sim.HourBoundary {
				hour = true
				break
			}
		}
		if !hour {
			return sim.RunSpec{}, false
		}
	}
	spec, fresh := a.pick(env, triggerFor(events))
	if spec.Equal(a.chosen) {
		return sim.RunSpec{}, false
	}
	a.chosen, a.chosenNew = spec, fresh
	return spec, true
}

// triggerFor labels a decision point by its events: a provider kill
// dominates a coincident hour boundary, matching the paper's triggers.
func triggerFor(events []sim.Event) string {
	for _, ev := range events {
		if ev.Kind == sim.ProviderKill {
			return TriggerProviderKill
		}
	}
	return TriggerHourBoundary
}

func (a *Adaptive) bids() []float64 {
	if a.Bids != nil {
		return a.Bids
	}
	return BidGrid()
}

func (a *Adaptive) maxZones(env *sim.Env) int {
	n := a.MaxZones
	if n <= 0 {
		n = 3
	}
	if total := len(env.Zones); n > total {
		n = total
	}
	return n
}

func (a *Adaptive) candidates() []PolicyFactory {
	if a.Candidates != nil {
		return a.Candidates
	}
	return DefaultAdaptiveCandidates()
}

func (a *Adaptive) window() int64 {
	if a.EstimationWindow > 0 {
		return a.EstimationWindow
	}
	return 12 * trace.Hour
}

func (a *Adaptive) headroom() float64 {
	if a.Headroom > 0 {
		return a.Headroom
	}
	return 0.03
}

func (a *Adaptive) churn() float64 {
	if a.Churn > 0 {
		return a.Churn
	}
	return 0.02
}

// zonesByPrice returns all zone indices ordered by current price,
// cheapest first (ties by index for determinism).
func zonesByPrice(env *sim.Env) []int {
	idx := make([]int, len(env.Zones))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(x, y int) bool {
		px, py := env.PriceNow(idx[x]), env.PriceNow(idx[y])
		if px != py {
			return px < py
		}
		return idx[x] < idx[y]
	})
	return idx
}

// historySet reconstructs a trace.Set of the trailing span seconds of
// price history visible at env.Now, for estimation replays.
func historySet(env *sim.Env, span int64) *trace.Set {
	series := make([]*trace.Series, len(env.Zones))
	var n int
	for zi := range env.Zones {
		prices := env.PriceHistory(zi, span)
		n = len(prices)
		epoch := env.Now - int64(len(prices)-1)*env.Step
		series[zi] = &trace.Series{
			Zone:   env.Cfg.Trace.Series[zi].Zone,
			Epoch:  epoch,
			Step:   env.Step,
			Prices: prices,
		}
	}
	if n == 0 {
		return nil
	}
	return trace.MustNewSet(series...)
}

// estimate holds a permutation's measured behaviour over the history
// window.
type estimate struct {
	progressRate float64 // work seconds per wall second
	costRate     float64 // dollars per wall second
}

// evaluator returns the strategy's evaluation service, building the
// default lazily.
func (a *Adaptive) evaluator() *Evaluator {
	if a.Eval == nil {
		a.Eval = NewEvaluator()
	}
	return a.Eval
}

// predictCost applies Inequality (1) at the paper's on-demand rate.
func predictCost(e estimate, cr, tr int64, migration int64) float64 {
	return predictCostAt(e, cr, tr, migration, market.OnDemandRate)
}

// predictCostAt applies Inequality (1): given the permutation's rates,
// the remaining work C_r and the remaining time T_r (less migration
// overhead), split the schedule between spot and an on-demand tail at
// odRate dollars per hour and return the predicted remaining cost.
func predictCostAt(e estimate, cr, tr int64, migration int64, odRate float64) float64 {
	if cr <= 0 {
		return 0
	}
	avail := float64(tr - migration)
	work := float64(cr)
	if avail <= 0 {
		// Only on-demand can finish now.
		return onDemandCost(work, odRate)
	}
	rate := e.progressRate
	if rate > 1 {
		rate = 1 // cannot progress faster than wall clock
	}
	if rate > 0 && rate*avail >= work {
		// Pure spot execution at the observed rate.
		return e.costRate * (work / rate)
	}
	if rate >= 1-1e-9 {
		// Spot is full speed but time is short: the tail is on-demand
		// either way; price the whole remainder on-demand as a floor.
		return onDemandCost(work, odRate)
	}
	// Spend t_s on spot, then finish on-demand:
	// t_s + (work − rate·t_s) = avail  ⇒  t_s = (avail − work)/(1 − rate).
	ts := (avail - work) / (1 - rate)
	if ts < 0 {
		ts = 0
	}
	odWork := work - rate*ts
	mixed := e.costRate*ts + onDemandCost(odWork, odRate)
	// Switching to on-demand immediately is always available; a mixed
	// schedule that costs more than that is never chosen.
	return math.Min(mixed, onDemandCost(work, odRate))
}

// onDemandCost prices work seconds of on-demand compute at odRate
// dollars per started hour.
func onDemandCost(work, odRate float64) float64 {
	hours := math.Ceil(work / float64(trace.Hour))
	return hours * odRate
}

// candidate is one scored (bid, N, policy) permutation.
type candidate struct {
	spec sim.RunSpec
	kind string
	fac  int // index of the policy's factory in candidates()
	n    int
	cost float64
}

// replayCandidates scores the full B × N × policy permutation grid by
// engine replay: the candidate grid is laid out in deterministic order
// and the evaluator prices every permutation in one sweep.
func (a *Adaptive) replayCandidates(env *sim.Env, hist *trace.Set, ordered []int, cr, tr, migration int64) []candidate {
	cands := a.candBuf[:0]
	specs := a.specBuf[:0]
	np := 0
	for fi, fac := range a.candidates() {
		for n := 1; n <= a.maxZones(env); n++ {
			zones := append([]int(nil), ordered[:n]...)
			sort.Ints(zones)
			for _, bid := range a.bids() {
				// The candidate's own policy instance is materialized
				// lazily by pickSpec for the winner only; the scoring
				// grid never runs these instances.
				cands = append(cands, candidate{
					spec: sim.RunSpec{Bid: bid, Zones: zones},
					kind: fac.Kind,
					fac:  fi,
					n:    n,
				})
				if hist != nil {
					if np == len(a.polBuf) {
						a.polBuf = append(a.polBuf, policySlot{})
					}
					if a.polBuf[np].pol == nil || a.polBuf[np].fac != fi {
						a.polBuf[np] = policySlot{fac: fi, pol: fac.New()}
					}
					specs = append(specs, sim.RunSpec{Bid: bid, Zones: zones, Policy: a.polBuf[np].pol})
					np++
				}
			}
		}
	}
	a.candBuf = cands
	a.specBuf = specs
	if hist == nil {
		for i := range cands {
			cands[i].cost = predictCost(estimate{}, cr, tr, migration)
		}
		return cands
	}
	ests := a.evaluator().MeasureAll(hist, specs, env.CheckpointCost(), env.RestartCost())
	for i := range cands {
		cands[i].cost = predictCost(ests[i], cr, tr, migration)
	}
	return cands
}

// pick evaluates every permutation and returns the least-predicted-cost
// spec with the constructor of its policy, tracing the decision with
// its chosen (bid, n, policy) and, when a Sink is attached, recording
// the full decision point (chosen plus every ranked rival) on the same
// adaptive.decision span path.
func (a *Adaptive) pick(env *sim.Env, trigger string) (sim.RunSpec, func() sim.CheckpointPolicy) {
	span := a.evaluator().Trace.Start("adaptive.decision")
	spec, fresh, cands, chosenCost := a.pickSpec(env)
	if a.Sink != nil {
		a.recordDecision(env, trigger, spec, cands, chosenCost)
	}
	if span.Recording() {
		span.SetAttr("trigger", trigger)
		span.SetAttr("bid", strconv.FormatFloat(spec.Bid, 'g', -1, 64))
		span.SetAttr("zones", strconv.Itoa(len(spec.Zones)))
		if spec.Policy != nil {
			span.SetAttr("policy", spec.Policy.Name())
		}
		span.SetAttr("batched", strconv.FormatBool(!a.evaluator().DisableBatch))
	}
	span.End()
	return spec, fresh
}

// recordDecision hands the decision point to the sink: the candidates
// are sorted best-first into the reusable rankBuf (the scoring grid is
// per-decision scratch, so reordering it after selection is safe) and
// the chosen spec is captured with the cost the selection actually
// compared (the incumbent's re-evaluated cost when churn damping kept
// it). Switched is computed against the pre-decision incumbent exactly
// as Reconsider will: spec identity via RunSpec.Equal.
func (a *Adaptive) recordDecision(env *sim.Env, trigger string, spec sim.RunSpec, cands []candidate, chosenCost float64) {
	sort.Slice(cands, func(x, y int) bool {
		cx, cy := &cands[x], &cands[y]
		if cx.cost != cy.cost {
			return cx.cost < cy.cost
		}
		if cx.spec.Bid != cy.spec.Bid {
			return cx.spec.Bid > cy.spec.Bid
		}
		if cx.n != cy.n {
			return cx.n < cy.n
		}
		return cx.kind < cy.kind
	})
	buf := a.rankBuf[:0]
	for i := range cands {
		c := &cands[i]
		buf = append(buf, DecisionAlt{
			Bid:    c.spec.Bid,
			Zones:  c.spec.Zones,
			Policy: c.kind,
			Cost:   sanitizeCost(c.cost),
		})
	}
	a.rankBuf = buf
	policy := ""
	if spec.Policy != nil {
		policy = spec.Policy.Name()
	}
	p := DecisionPoint{
		Seq:      a.decSeq,
		Time:     env.Now,
		Trigger:  trigger,
		Switched: !spec.Equal(a.chosen),
		Chosen:   DecisionAlt{Bid: spec.Bid, Zones: spec.Zones, Policy: policy, Cost: sanitizeCost(chosenCost)},
		Ranked:   buf,
	}
	a.decSeq++
	a.Sink.RecordDecision(p)
}

// pickSpec is pick's decision body. It returns the selected spec, the
// constructor its policy instance came from, the scored candidate grid
// (per-decision scratch) and the predicted cost the selection compared
// for the chosen spec.
func (a *Adaptive) pickSpec(env *sim.Env) (sim.RunSpec, func() sim.CheckpointPolicy, []candidate, float64) {
	hist := historySet(env, a.window())
	ordered := zonesByPrice(env)
	cr := env.RemainingWork()
	tr := env.RemainingTime()
	migration := env.CheckpointCost() + env.RestartCost() + env.Step

	cands := a.replayCandidates(env, hist, ordered, cr, tr, migration)
	var best *candidate
	minCost := math.Inf(1)
	for i := range cands {
		if cands[i].cost < minCost {
			minCost = cands[i].cost
		}
	}
	// Among candidates within a few percent of the least predicted
	// cost, prefer bid headroom (short estimation replays under-sample
	// terminations, so near-equal low bids are riskier than they look)
	// and then fewer zones.
	for i := range cands {
		c := &cands[i]
		if c.cost > minCost*(1+a.headroom())+1e-9 {
			continue
		}
		if best == nil ||
			c.spec.Bid > best.spec.Bid ||
			(c.spec.Bid == best.spec.Bid && c.n < best.n) {
			best = c
		}
	}
	if best == nil {
		// No history at all: fall back to single-zone Periodic at the
		// median bid.
		bids := a.bids()
		fresh := func() sim.CheckpointPolicy { return NewPeriodic() }
		fallback := sim.RunSpec{Bid: bids[len(bids)/2], Zones: []int{ordered[0]}, Policy: fresh()}
		return fallback, fresh, cands, math.Inf(1)
	}
	// Keep the current configuration when it predicts within a hair of
	// the best, avoiding churn from estimation noise.
	if len(a.chosen.Zones) > 0 && !best.spec.Equal(a.chosen) {
		cur := a.evalIncumbent(env, hist, cr, tr, migration)
		if cur <= best.cost*(1+a.churn()) {
			return a.chosen, a.chosenNew, cands, cur
		}
	}
	// Candidates defer their policy instance to the winner (the scoring
	// grid never runs it). Build it from the winner's own factory, so a
	// profile shares its parameters with no other of the same kind.
	fresh := a.candidates()[best.fac].New
	best.spec.Policy = fresh()
	return best.spec, fresh, cands, best.cost
}

// evalIncumbent predicts the remaining cost of the running spec,
// replaying a fresh instance of its policy with the same parameters.
func (a *Adaptive) evalIncumbent(env *sim.Env, hist *trace.Set, cr, tr, migration int64) float64 {
	if hist == nil {
		return math.Inf(1)
	}
	fresh := sim.RunSpec{Bid: a.chosen.Bid, Zones: a.chosen.Zones, Policy: a.chosenNew()}
	est := a.evaluator().measureOne(hist, fresh, env.CheckpointCost(), env.RestartCost())
	return predictCost(est, cr, tr, migration)
}
