package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultAdaptiveCandidates returns the policy families the Adaptive
// scheme chooses among. Edge and Threshold are excluded, as the paper
// drops them after §6 for their high recovery costs; Large-bid is
// excluded because it has no cost bound (§7.2.2).
func DefaultAdaptiveCandidates() []PolicySpec {
	return []PolicySpec{{Family: FamilyPeriodic}, {Family: FamilyMarkovDaly}}
}

// Adaptive is the paper's §7 scheme: at each decision point (a zone
// terminated out-of-bid, or a billing hour ended) it simulates every
// permutation of bid price B, zone count N and candidate policy against
// recent price history — the grid Evaluator.Rank ranks — predicts each permutation's remaining cost via
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
	// Candidates are the policies chosen among; nil selects the
	// defaults. Each must be of the Periodic or Markov-Daly family, the
	// families the batched engine replays, and no two may print the
	// same, since decision records name the winner by its descriptor's
	// String: a run refuses any other list (Validate).
	Candidates []PolicySpec
	// EstimationWindow is how much trailing history each permutation is
	// simulated over; 0 selects 12 hours.
	EstimationWindow int64
	// ReDecideOnHourOnly restricts decisions to hour boundaries,
	// ignoring kills; used by the decision-trigger ablation.
	ReDecideOnHourOnly bool
	// Eval is the evaluation service the permutation search runs on;
	// nil selects NewEvaluator(), whose batched engine replays each
	// decision's permutations serially.
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
	// Script, when non-nil, replays recorded decisions instead of
	// pricing them, for counterfactual replay; nil is the live
	// strategy. Decisions past the script's force or its choices are
	// made live.
	Script *Script

	chosen sim.RunSpec
	// chosenPol describes chosen's policy, so churn damping prices a
	// fresh instance of the incumbent, in the decision's own sweep, as
	// it actually runs, and a kept incumbent's decision record names it.
	chosenPol PolicySpec
	decSeq    int // decisions made this run
	pinned    int // Script.Choices consumed this run

	// run is this run's token, which names its resident window in the
	// shared sweep scratch (scratch.go); grid is its permutation grid,
	// resolved at its first priced decision.
	run  uint64
	grid *runGrid
}

// NewAdaptive returns the Adaptive strategy with the paper's settings.
func NewAdaptive() *Adaptive { return &Adaptive{} }

// Name implements sim.Strategy.
func (a *Adaptive) Name() string { return "adaptive" }

// Validate reports a candidate list the strategy cannot run, as Rank
// refuses it; sim runs call it before Begin.
func (a *Adaptive) Validate() error { return checkCandidates(a.Candidates) }

// Begin implements sim.Strategy: bootstrap from the price history
// preceding the experiment (the paper primes with 2 days) and pick the
// initial permutation.
func (a *Adaptive) Begin(env *sim.Env) sim.RunSpec {
	a.decSeq, a.pinned = 0, 0
	a.chosen, a.chosenPol = sim.RunSpec{}, PolicySpec{}
	a.run, a.grid = runSeq.Add(1), nil
	if a.Script != nil {
		if spec, _, ok := a.replay(env, TriggerBegin); ok {
			return spec
		}
	}
	a.chosen, a.chosenPol = a.pick(env, TriggerBegin)
	return a.chosen
}

// Reconsider implements sim.Strategy.
func (a *Adaptive) Reconsider(env *sim.Env, events []sim.Event) (sim.RunSpec, bool) {
	if a.ReDecideOnHourOnly && !hasHourBoundary(events) {
		return sim.RunSpec{}, false
	}
	trigger := triggerFor(events)
	if a.Script != nil {
		if spec, switched, ok := a.replay(env, trigger); ok {
			return spec, switched
		}
	}
	spec, pol := a.pick(env, trigger)
	if spec.Equal(a.chosen) {
		return sim.RunSpec{}, false
	}
	a.chosen, a.chosenPol = spec, pol
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

// hasHourBoundary reports whether the events include an hour boundary.
func hasHourBoundary(events []sim.Event) bool {
	for _, ev := range events {
		if ev.Kind == sim.HourBoundary {
			return true
		}
	}
	return false
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

// fallbackPolicy is the policy a decision falls back to when the grid
// is empty: single-zone Periodic at the median bid.
var fallbackPolicy = PolicySpec{Family: FamilyPeriodic}

// pick prices Rank's permutation grid over the trailing estimation
// window — with a fresh instance of the incumbent, when there is one,
// in the same sweep — and returns the selected spec and its policy's
// descriptor. The window is the run's resident one, slid to env.Now in
// a pooled sweep scratch. It traces the decision and, when a Sink is
// attached, records it with the whole ranked grid on the same
// adaptive.decision span path.
func (a *Adaptive) pick(env *sim.Env, trigger string) (sim.RunSpec, PolicySpec) {
	ev := a.evaluator()
	span := ev.Trace.Start("adaptive.decision")
	sc := takeScratch()
	defer sc.release()
	req := PlanRequest{
		History:        sc.slide(env, a.run, a.window()),
		Work:           env.RemainingWork(),
		Deadline:       env.RemainingTime(),
		CheckpointCost: env.CheckpointCost(),
		RestartCost:    env.RestartCost(),
	}
	if a.grid == nil {
		a.grid = newRunGrid(a, env)
	}
	var incumbent *sim.RunSpec
	if len(a.chosen.Zones) > 0 {
		incumbent = &sim.RunSpec{Bid: a.chosen.Bid, Zones: a.chosen.Zones, Policy: a.chosenPol.New()}
	}
	slots, ests := sc.estimateSlots(ev, a.grid, incumbent)
	sc.costs = slices.Grow(sc.costs[:0], len(slots))[:len(slots)]
	spec, pol, cost := a.choose(&req, env.Step, a.grid.bids, a.grid.cands, slots, ests, sc.costs)
	if a.Sink != nil {
		plans := scorePlans(&req, env.Step, market.OnDemandRate, slots, ests)
		a.Sink.RecordDecision(DecisionPoint{
			Seq:      a.decSeq,
			Time:     env.Now,
			Trigger:  trigger,
			Switched: !spec.Equal(a.chosen), // as Reconsider will compare
			Chosen:   DecisionAlt{Bid: spec.Bid, Zones: spec.Zones, Policy: pol.String(), Cost: sanitizeCost(cost)},
			Ranked:   rankedAlts(req.History, plans),
		})
	}
	a.decSeq++
	if span.Recording() {
		span.SetAttr("trigger", trigger)
		span.SetAttr("bid", strconv.FormatFloat(spec.Bid, 'g', -1, 64))
		span.SetAttr("zones", strconv.Itoa(len(spec.Zones)))
		span.SetAttr("policy", pol.String())
		span.SetAttr("batched", strconv.FormatBool(!ev.DisableBatch))
	}
	span.End()
	return spec, pol
}

// choose is pick's selection over the priced slots; ests holds one
// estimate per slot, then the incumbent's when there is one, and costs
// one entry per slot, which it overwrites with the slots' predicted
// costs. It returns
// the selected spec, its policy's descriptor and the predicted cost the
// selection compared for it (the incumbent's
// re-priced cost when churn damping kept it).
func (a *Adaptive) choose(req *PlanRequest, step int64, bids []float64, cands []PolicySpec, slots []rankSlot, ests []estimate, costs []float64) (sim.RunSpec, PolicySpec, float64) {
	migration := req.CheckpointCost + req.RestartCost + step
	minCost := math.Inf(1)
	for i := range slots {
		costs[i] = predictCostAt(ests[i], req.Work, req.Deadline, migration, market.OnDemandRate)
		if costs[i] < minCost {
			minCost = costs[i]
		}
	}
	// Among slots within a few percent of the least predicted cost,
	// prefer bid headroom (short estimation replays under-sample
	// terminations, so near-equal low bids are riskier than they look),
	// then fewer zones, then the earlier slot.
	best := -1
	for i := range slots {
		if costs[i] > minCost*(1+a.headroom())+1e-9 {
			continue
		}
		if best < 0 || slots[i].bid > slots[best].bid ||
			(slots[i].bid == slots[best].bid && len(slots[i].zones) < len(slots[best].zones)) {
			best = i
		}
	}
	if best < 0 {
		zone := zonesByHistPrice(req.History)[0]
		return sim.RunSpec{Bid: bids[len(bids)/2], Zones: []int{zone}, Policy: fallbackPolicy.New()}, fallbackPolicy, math.Inf(1)
	}
	// Keep the current configuration when it predicts within a hair of
	// the best, avoiding churn from estimation noise.
	if len(a.chosen.Zones) > 0 {
		cur := predictCostAt(ests[len(slots)], req.Work, req.Deadline, migration, market.OnDemandRate)
		if cur <= costs[best]*(1+a.churn()) {
			return a.chosen, a.chosenPol, cur
		}
	}
	// Build the winner's instance from its own descriptor, so a profile
	// shares its parameters with no other.
	sl := &slots[best]
	pol := cands[sl.fac]
	return sim.RunSpec{Bid: sl.bid, Zones: sl.zones, Policy: pol.New()}, pol, costs[best]
}

// Script is what an Adaptive replays in place of pricing: decision i
// takes Choices[i]'s Chosen bid, zones and policy, Switched flag
// included, until decision ForceAt, which takes Force; every decision
// after ForceAt, or past Choices, is made live. A choice is matched to
// its Reconsider call by Time, so gated non-decisions stay gated; its
// Chosen.Policy names a candidate's descriptor, never an instance's
// name. Pinning a whole recorded log reproduces its run
// bit-identically, and a pinned or forced decision prices nothing.
type Script struct {
	// Choices are the recorded decisions to pin, in sequence order;
	// their costs and ranked rivals are ignored.
	Choices []DecisionPoint
	// ForceAt is the decision sequence number that takes Force;
	// negative pins Choices and forces nothing.
	ForceAt int
	// Force is the alternative decision ForceAt takes (its Cost is
	// ignored). It switches the running spec iff its bid, zone set or
	// policy differ from the incumbent's.
	Force DecisionAlt
}

// replay makes decision a.decSeq from the script and reports ok, or
// reports !ok when the decision is Adaptive's own. A Reconsider call
// whose time does not match the next choice was gated in the recorded
// run and stays a non-decision. Begin takes the first choice whatever
// its time and always installs it.
func (a *Adaptive) replay(env *sim.Env, trigger string) (sim.RunSpec, bool, bool) {
	s, seq := a.Script, a.decSeq
	if s.ForceAt >= 0 && seq > s.ForceAt {
		return sim.RunSpec{}, false, false
	}
	pinned := a.pinned < len(s.Choices)
	var alt DecisionAlt
	var switched bool
	if pinned {
		c := &s.Choices[a.pinned]
		if seq > 0 && c.Time != env.Now {
			return sim.RunSpec{}, false, true
		}
		a.pinned++
		alt, switched = c.Chosen, c.Switched
	}
	if seq == s.ForceAt {
		alt = s.Force
		switched = alt.Bid != a.chosen.Bid || alt.Policy != a.chosenPol.String() || !slices.Equal(alt.Zones, a.chosen.Zones)
	} else if !pinned {
		return sim.RunSpec{}, false, false
	}
	a.decSeq++
	switched = switched || seq == 0
	if switched {
		pol, _ := resolveCandidate(a.Candidates, alt.Policy)
		a.chosen = sim.RunSpec{Bid: alt.Bid, Zones: append([]int(nil), alt.Zones...), Policy: pol.New()}
		a.chosenPol = pol
	}
	if a.Sink != nil {
		a.Sink.RecordDecision(DecisionPoint{
			Seq:      seq,
			Time:     env.Now,
			Trigger:  trigger,
			Switched: switched,
			Chosen:   DecisionAlt{Bid: alt.Bid, Zones: alt.Zones, Policy: alt.Policy},
		})
	}
	if !switched {
		return sim.RunSpec{}, false, true
	}
	return a.chosen, true, true
}

// resolveCandidate returns the candidate of cands (nil selects
// DefaultAdaptiveCandidates) a decision record names, or the empty
// grid's fallback, and whether the name is either; any other name
// resolves to the fallback, Periodic (CheckScript refuses it).
func resolveCandidate(cands []PolicySpec, name string) (PolicySpec, bool) {
	_, _, cands = resolveGrid(nil, 0, 0, cands)
	if i := slices.IndexFunc(cands, func(c PolicySpec) bool { return c.String() == name }); i >= 0 {
		return cands[i], true
	}
	return fallbackPolicy, name == fallbackPolicy.String()
}

// CheckScript reports why an Adaptive over cands (nil selects
// DefaultAdaptiveCandidates) cannot replay s (nil checks cands alone):
// a candidate list Rank would refuse — two descriptors that print the
// same, which no decision record can tell apart — or a choice or force
// naming a policy that neither a candidate nor the empty grid's
// Periodic fallback is.
func CheckScript(cands []PolicySpec, s *Script) error {
	if err := checkCandidates(cands); err != nil || s == nil {
		return err
	}
	var alts []DecisionAlt
	for _, c := range s.Choices {
		alts = append(alts, c.Chosen)
	}
	if s.ForceAt >= 0 {
		alts = append(alts, s.Force)
	}
	for _, c := range alts {
		if _, ok := resolveCandidate(cands, c.Policy); !ok {
			return fmt.Errorf("core: choice names policy kind %q, which no candidate has", c.Policy)
		}
	}
	return nil
}
