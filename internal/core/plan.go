package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultCheckpointCost is the planning default for t_c = t_r in
// seconds: the lower of the two costs the paper evaluates (§5).
const DefaultCheckpointCost int64 = 300

// PlanRequest describes one planning question for Rank: how much work
// remains, how much wall-clock budget the deadline leaves, and which
// price history window the candidate permutations should be replayed
// over. It is the offline (service-facing) form of the question the
// Adaptive strategy answers at every decision point.
type PlanRequest struct {
	// History is the trailing price window the permutations replay.
	History *trace.Set
	// Work is the remaining computation C_r in seconds.
	Work int64
	// Deadline is the remaining wall-clock budget T_r in seconds.
	Deadline int64
	// CheckpointCost and RestartCost are t_c and t_r in seconds.
	CheckpointCost int64
	RestartCost    int64
	// OnDemandRate prices the on-demand fallback in dollars per hour;
	// 0 selects market.OnDemandRate.
	OnDemandRate float64
	// Bids is the candidate bid grid; nil selects BidGrid().
	Bids []float64
	// MaxZones bounds the redundancy degree N; 0 selects 3 (clamped to
	// the zones the history has).
	MaxZones int
	// Candidates are the policies ranked; nil selects
	// DefaultAdaptiveCandidates().
	Candidates []PolicySpec
}

// Plan is one scored (bid, zones, policy) permutation of a Rank call.
type Plan struct {
	// Bid is the spot bid in dollars per hour.
	Bid float64
	// Zones names the availability zones the plan runs in; its length
	// is the redundancy degree N.
	Zones []string
	// Policy is the checkpoint policy's descriptor
	// (PolicySpec.String).
	Policy string
	// PredictedCost is the Inequality (1) remaining-cost prediction in
	// dollars.
	PredictedCost float64
	// ProgressRate is the measured work-seconds-per-wall-second over
	// the history window.
	ProgressRate float64
	// CostRate is the measured spend in dollars per wall-clock hour.
	CostRate float64
	// PredictedFinish is the predicted completion time in seconds from
	// now under the predicted schedule split.
	PredictedFinish int64
	// DeadlineMargin is Deadline − PredictedFinish in seconds; negative
	// margins flag plans whose predicted schedule overruns the budget.
	DeadlineMargin int64
}

// validate reports structural errors in a plan request.
func (req *PlanRequest) validate() error {
	if req.History == nil || req.History.NumZones() == 0 || req.History.Duration() <= 0 {
		return errors.New("core: plan request needs a non-empty history window")
	}
	if req.Work <= 0 {
		return fmt.Errorf("core: non-positive remaining work %d", req.Work)
	}
	if req.Deadline < req.Work {
		return fmt.Errorf("core: deadline %d cannot be met: below remaining work %d", req.Deadline, req.Work)
	}
	if err := checkRates(req.OnDemandRate, req.CheckpointCost, req.RestartCost); err != nil {
		return err
	}
	if err := checkBids(req.Bids); err != nil {
		return err
	}
	return checkCandidates(req.Candidates)
}

// checkBids refuses a bid grid holding a NaN or infinite bid: no replay
// can rank one (a NaN admits no price yet passes a non-positive test,
// and both break the uptime solve's state lookup).
func checkBids(bids []float64) error {
	for _, bid := range bids {
		if math.IsNaN(bid) || math.IsInf(bid, 0) {
			return fmt.Errorf("core: bid %g is not finite", bid)
		}
	}
	return nil
}

// checkRates refuses what no prediction can price: a negative or
// non-finite on-demand rate (a NaN rate passes a negative test and
// turns predicted costs NaN) and a negative checkpoint or restart cost.
func checkRates(odRate float64, tc, tr int64) error {
	if !(odRate >= 0) || math.IsInf(odRate, 1) {
		return fmt.Errorf("core: on-demand rate %g is not finite and non-negative", odRate)
	}
	if tc < 0 || tr < 0 {
		return fmt.Errorf("core: negative checkpoint cost %d or restart cost %d", tc, tr)
	}
	return nil
}

// checkCandidates refuses candidate lists a ranking cannot price or a
// decision record cannot name: every candidate must be of the Periodic
// or Markov-Daly family, the two the paper's Adaptive scheme chooses
// among (§7) and the batched engine replays, and no two may print the
// same, since a record keeps only the winner's String.
func checkCandidates(cands []PolicySpec) error {
	for i, c := range cands {
		if c.Family != FamilyPeriodic && c.Family != FamilyMarkovDaly {
			return fmt.Errorf("core: candidate %q is neither periodic nor markov-daly, the families the batched engine replays", c)
		}
		for _, prev := range cands[:i] {
			if prev.String() == c.String() {
				return fmt.Errorf("core: two candidates of kind %q", c)
			}
		}
	}
	return nil
}

// zonesByHistPrice returns the history's zone indices ordered by final
// observed price, cheapest first (ties by index for determinism). Over
// an Adaptive decision's window the final price is the current one.
func zonesByHistPrice(hist *trace.Set) []int { return zoneOrder(nil, hist) }

// zoneOrder is zonesByHistPrice into dst's storage.
func zoneOrder(dst []int, hist *trace.Set) []int {
	dst = dst[:0]
	for zi := range hist.Series {
		dst = append(dst, zi)
	}
	end := hist.End()
	slices.SortFunc(dst, func(x, y int) int {
		px, py := hist.Series[x].PriceAt(end-1), hist.Series[y].PriceAt(end-1)
		if px != py {
			if px < py {
				return -1
			}
			return 1
		}
		return x - y
	})
	return dst
}

// predictFinish mirrors predictCostAt's schedule split and returns the
// predicted completion time in seconds from now: migration plus spot
// execution at the observed rate when the deadline leaves room, the
// whole remaining budget when the prediction needs an on-demand tail,
// and an immediate on-demand restart when spot makes no progress.
func predictFinish(e estimate, cr, tr, migration int64) int64 {
	if cr <= 0 {
		return 0
	}
	avail := float64(tr - migration)
	rate := e.progressRate
	if rate > 1 {
		rate = 1
	}
	if avail <= 0 || rate <= 0 {
		// Immediate on-demand restart from the last checkpoint.
		return migration + cr
	}
	work := float64(cr)
	if rate*avail >= work {
		return migration + int64(math.Ceil(work/rate))
	}
	// A mixed spot/on-demand schedule uses the full remaining budget.
	return tr
}

// resolveGrid resolves the permutation grid's defaulted knobs, shared
// by Rank, the stream grid and the Adaptive strategy: nil bids select
// BidGrid(), a non-positive redundancy bound selects 3 (clamped to the
// nz zones there are) and nil candidates select
// DefaultAdaptiveCandidates().
func resolveGrid(bids []float64, maxZones, nz int, cands []PolicySpec) ([]float64, int, []PolicySpec) {
	if bids == nil {
		bids = BidGrid()
	}
	if maxZones <= 0 {
		maxZones = 3
	}
	maxZones = min(maxZones, nz)
	if cands == nil {
		cands = DefaultAdaptiveCandidates()
	}
	return bids, maxZones, cands
}

// rankSlot is one (policy, zone set, bid) cell of a ranking sweep's
// permutation grid. kind is the candidate's descriptor string and fac
// indexes the candidate list the grid was built from; zone sets and
// their zone names are shared (not copied) across the cells of one
// redundancy degree, and so are the Zones of the plans scored from them.
type rankSlot struct {
	kind  string
	fac   int
	bid   float64
	zones []int
	names []string
}

// rankSlots enumerates the permutation grid over the history's current
// cheapest-last-price zone ordering, in Rank's exact slot order
// (candidate-major, then redundancy degree, then bid). The streaming
// evaluator re-derives this grid every tick: the ordering — and with it
// the zone sets — can change whenever prices move.
func rankSlots(hist *trace.Set, bids []float64, maxZones int, cands []PolicySpec) []rankSlot {
	return buildSlots(zonesByHistPrice(hist), hist.Zones(), bids, maxZones, cands)
}

// buildSlots enumerates the permutation grid over a zone ordering; the
// table depends on nothing else of the window, so an Adaptive run keeps
// one per ordering (runGrid).
func buildSlots(ordered []int, zoneNames []string, bids []float64, maxZones int, cands []PolicySpec) []rankSlot {
	sets := make([][]int, maxZones)
	names := make([][]string, maxZones)
	for n := 1; n <= maxZones; n++ {
		zs := append([]int(nil), ordered[:n]...)
		sort.Ints(zs)
		sets[n-1] = zs
		names[n-1] = make([]string, n)
		for j, zi := range zs {
			names[n-1][j] = zoneNames[zi]
		}
	}
	slots := make([]rankSlot, 0, len(cands)*maxZones*len(bids))
	for fi := range cands {
		kind := cands[fi].String()
		for n := 1; n <= maxZones; n++ {
			for _, bid := range bids {
				slots = append(slots, rankSlot{kind: kind, fac: fi, bid: bid, zones: sets[n-1], names: names[n-1]})
			}
		}
	}
	return slots
}

// estimateSlots is Rank's estimate step: the permutation grid over the
// window and every cell's replayed estimate, in slot order. It reads
// nothing of the request's work, deadline or on-demand rate — those
// enter only scorePlans — so one estimate step serves every request
// shape over the same window and grid knobs. An Adaptive decision runs
// the same step on its resident window (sweepScratch.estimateSlots).
func (ev *Evaluator) estimateSlots(hist *trace.Set, tc, tr int64, bids []float64, maxZones int, cands []PolicySpec) ([]rankSlot, []estimate) {
	slots := rankSlots(hist, bids, maxZones, cands)
	specs := ev.slotSpecs(make([]sim.RunSpec, 0, len(slots)), slots, cands, make([]sim.CheckpointPolicy, len(cands)))
	return slots, ev.MeasureAll(hist, specs, tc, tr)
}

// slotSpecs appends one spec per slot to specs. The batched engine
// reads only a policy's parameters, so one instance per candidate, kept
// in pols (built on first use), serves all of its slots; oracle replays
// run each instance, so under DisableBatch every slot gets a new one.
func (ev *Evaluator) slotSpecs(specs []sim.RunSpec, slots []rankSlot, cands []PolicySpec, pols []sim.CheckpointPolicy) []sim.RunSpec {
	for i := range slots {
		sl := &slots[i]
		if pols[sl.fac] == nil || ev.DisableBatch {
			pols[sl.fac] = cands[sl.fac].New()
		}
		specs = append(specs, sim.RunSpec{Bid: sl.bid, Zones: sl.zones, Policy: pols[sl.fac]})
	}
	return specs
}

// scorePlans converts per-slot estimates into the ranked plan table:
// Inequality (1) cost prediction and schedule split per slot, then the
// stable best-first order (ascending predicted cost, ties toward bid
// headroom, then fewer zones, then policy name); step is the window's
// sampling interval, part of the migration cost. The stable sort runs
// over plan indexes rather than the plans themselves — the same
// comparisons, so the same order, without moving whole Plan values.
func scorePlans(req *PlanRequest, step int64, odRate float64, slots []rankSlot, ests []estimate) []Plan {
	migration := req.CheckpointCost + req.RestartCost + step
	plans := make([]Plan, len(slots))
	for i := range slots {
		sl := &slots[i]
		e := ests[i]
		finish := predictFinish(e, req.Work, req.Deadline, migration)
		plans[i] = Plan{
			Bid:             sl.bid,
			Zones:           sl.names,
			Policy:          sl.kind,
			PredictedCost:   predictCostAt(e, req.Work, req.Deadline, migration, odRate),
			ProgressRate:    e.progressRate,
			CostRate:        e.costRate * float64(trace.Hour),
			PredictedFinish: finish,
			DeadlineMargin:  req.Deadline - finish,
		}
	}
	less := func(a, b *Plan) bool {
		if a.PredictedCost != b.PredictedCost {
			return a.PredictedCost < b.PredictedCost
		}
		if a.Bid != b.Bid {
			return a.Bid > b.Bid // prefer bid headroom among ties
		}
		if len(a.Zones) != len(b.Zones) {
			return len(a.Zones) < len(b.Zones)
		}
		return a.Policy < b.Policy
	}
	order := make([]int32, len(plans))
	for i := range order {
		order[i] = int32(i)
	}
	// The stable sort only ever tests cmp < 0, exactly where
	// sort.SliceStable tests less.
	slices.SortStableFunc(order, func(x, y int32) int {
		if less(&plans[x], &plans[y]) {
			return -1
		}
		return 0
	})
	// Apply the order in place, one cycle at a time: plans[i] becomes
	// the plan order[i] named; visited entries are marked -1.
	for i := range order {
		if order[i] < 0 {
			continue
		}
		held, j := plans[i], i
		for {
			k := int(order[j])
			order[j] = -1
			if k == i {
				plans[j] = held
				break
			}
			plans[j] = plans[k]
			j = k
		}
	}
	return plans
}

// Rank scores every (bid, zone set, policy) permutation of the request
// by replaying it over the history window — the Adaptive strategy's
// §7 permutation search exposed as a standalone planning service — and
// returns all plans ordered best-first: ascending predicted cost, with
// ties broken toward bid headroom (higher bid), then fewer zones, then
// policy name. The result depends only on the request (fixed estimation seed, order-preserving fan-out), so
// identical requests yield identical plans regardless of worker count.
func (ev *Evaluator) Rank(req PlanRequest) ([]Plan, error) {
	rsp := ev.Trace.Start("eval.rank")
	defer rsp.End()
	if err := req.validate(); err != nil {
		return nil, err
	}
	odRate := req.OnDemandRate
	if odRate == 0 {
		odRate = market.OnDemandRate
	}
	bids, maxZones, cands := resolveGrid(req.Bids, req.MaxZones, req.History.NumZones(), req.Candidates)
	slots, ests := ev.estimateSlots(req.History, req.CheckpointCost, req.RestartCost, bids, maxZones, cands)
	plans := scorePlans(&req, req.History.Step(), odRate, slots, ests)
	if ev.Sink != nil && len(plans) > 0 {
		ev.Sink.RecordDecision(rankDecision(req.History, plans))
	}
	return plans, nil
}

// rankDecision converts a ranked plan table into the decision-point
// shape shared with the Adaptive strategy: the best plan as the chosen
// permutation and the whole table as the ranked rivals. Seq is -1 (the
// sink assigns it) and Time is the end of the history window the plans
// were scored over.
func rankDecision(hist *trace.Set, plans []Plan) DecisionPoint {
	alts := rankedAlts(hist, plans)
	return DecisionPoint{
		Seq:      -1,
		Time:     hist.End(),
		Trigger:  TriggerRank,
		Switched: false,
		Chosen:   alts[0],
		Ranked:   alts,
	}
}

// rankedAlts converts a ranked plan table into decision alternatives,
// mapping plan zone names back to the history's zone indices.
func rankedAlts(hist *trace.Set, plans []Plan) []DecisionAlt {
	byName := make(map[string]int, hist.NumZones())
	for i, name := range hist.Zones() {
		byName[name] = i
	}
	alts := make([]DecisionAlt, len(plans))
	for i := range plans {
		p := &plans[i]
		zones := make([]int, len(p.Zones))
		for j, name := range p.Zones {
			zones[j] = byName[name]
		}
		alts[i] = DecisionAlt{Bid: p.Bid, Zones: zones, Policy: p.Policy, Cost: sanitizeCost(p.PredictedCost)}
	}
	return alts
}
