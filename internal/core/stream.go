package core

import (
	"fmt"
	"math"

	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Streaming evaluation: the ranked plan table maintained as a resident
// structure that price ticks update, instead of a product recomputed
// per request. Rank prices a request by replaying every permutation
// over the whole window — O(window × permutations) even though
// consecutive requests differ by one tick. A StreamEvaluator inverts
// that dataflow: it owns an append-only price tape, keeps every
// permutation's batched replay state (batch.go) live at the window end,
// and on each tick extends the columnar views, availability indexes and
// fit memos in place, steps every resident permutation by exactly one
// interval, and re-scores the table from non-destructive meter closes —
// O(permutations) work per tick, O(delta) in the window.
//
// The contract is bit-identicality, not approximation: after any
// number of ticks the table equals what Evaluator.Rank would return
// for the same window, float for float. That holds because the batched
// engine's per-step state machine is the oracle's (stepPerm mirrors
// Machine.Step stage by stage), its event-skipped replay commits
// charges in the oracle's exact order, every memo entry is a pure
// function of a window prefix (append-stable), and the estimation
// close is replayed on local copies so reading the table never
// perturbs the resident state. A periodic full-rebuild cross-check
// (CrossCheckEvery) re-derives the table through Rank and counts — and
// corrects — any divergence, turning the invariant into a runtime
// check rather than a test-only one.
//
// Ordering churn is the one structural event: the grid's zone sets
// follow the cheapest-last-price ordering, so a tick that reorders
// zones introduces permutations never replayed before. Those catch up
// with one event-skipped replay over the accumulated window (the
// indexes and memos already cover it); permutations that fall out of
// the grid stay resident and keep stepping — cheap, and they resume
// for free when the ordering flips back — until the resident set
// outgrows the grid by residentSlack and a rebuild prunes it.
//
// Every grid cell stays resident: NewStreamEvaluator refuses what the
// batched engine cannot replay or a permutation key cannot hold — a
// policy family beyond Periodic and Markov-Daly, a non-positive or NaN
// bid, more than 255 zones, more than 8 zones per set. Any mix of
// Periodic and Markov-Daly candidates, whatever their parameters, is
// accepted.
//
// A StreamEvaluator is single-goroutine by design: the tick pipeline
// owns it, and everything downstream reads published snapshots.

// Streaming evaluator defaults: the cross-check cadence and the
// retention bound (in steps) before the tape is compacted to half.
const (
	DefaultCrossCheckEvery = 256
	DefaultStreamRetention = 8192
)

// residentSlack is how far the resident permutation set may outgrow
// the live grid (orderings come and go with price moves) before a
// rebuild prunes the stale ones.
const residentSlack = 4

// StreamConfig describes one streaming planning question: the fixed
// request shape (everything a PlanRequest carries except the history)
// plus the feed geometry the tape accretes ticks on.
type StreamConfig struct {
	// Zones names the feed's availability zones, in column order.
	Zones []string
	// Start is the absolute time of the first tick's sample.
	Start int64
	// Step is the tick interval in seconds; 0 selects trace.DefaultStep.
	Step int64

	// Work and Deadline are the remaining computation C_r and
	// wall-clock budget T_r in seconds, as in PlanRequest.
	Work     int64
	Deadline int64
	// CheckpointCost and RestartCost are t_c and t_r in seconds.
	CheckpointCost int64
	RestartCost    int64
	// OnDemandRate prices the on-demand fallback; 0 selects
	// market.OnDemandRate.
	OnDemandRate float64
	// Bids is the candidate bid grid; nil selects BidGrid().
	Bids []float64
	// MaxZones bounds the redundancy degree N; 0 selects 3 (clamped to
	// the configured zones).
	MaxZones int
	// Candidates are the policy families; nil selects
	// DefaultAdaptiveCandidates().
	Candidates []PolicyFactory

	// CrossCheckEvery is the tick cadence of the full-rebuild
	// cross-check; 0 selects DefaultCrossCheckEvery, negative disables
	// it.
	CrossCheckEvery int
	// MaxSteps bounds the retained window; past it the tape compacts to
	// its trailing half and the resident state rebuilds over the
	// shortened window. 0 selects DefaultStreamRetention.
	MaxSteps int
}

// StreamUpdate is the outcome of one tick: the (possibly unchanged)
// ranked table under its monotonic generation number, plus the diff
// against the previous generation for push consumers. Plans aliases the
// evaluator's current table and must be treated as read-only.
type StreamUpdate struct {
	// Generation is the monotonic plan-table generation; it increments
	// exactly when the table changes.
	Generation uint64
	// Tick counts ingested ticks, 1-based.
	Tick uint64
	// Steps is the retained window length in samples.
	Steps int
	// At is the absolute time of this tick's sample.
	At int64
	// Changed reports whether this tick produced a new generation.
	Changed bool
	// BestChanged reports whether rank 0 changed this tick.
	BestChanged bool
	// ChangedRanks counts table positions whose plan changed.
	ChangedRanks int
	// Plans is the current ranked table (read-only alias).
	Plans []Plan
}

// StreamStats counts the evaluator's structural events, for metrics
// and the cross-check's divergence accounting.
type StreamStats struct {
	// Ticks counts ingested ticks.
	Ticks uint64
	// Rebuilds counts full resident-state rebuilds (first tick,
	// compactions, prunes, cross-check corrections).
	Rebuilds int64
	// Compactions counts retention-bound tape compactions.
	Compactions int64
	// CatchUps counts permutations that entered the grid mid-stream and
	// replayed over the accumulated window.
	CatchUps int64
	// CrossChecks counts full-rebuild cross-checks run.
	CrossChecks int64
	// CrossCheckMismatches counts cross-checks whose from-scratch table
	// differed from the incremental one (the reference table is adopted
	// and the resident state rebuilt).
	CrossCheckMismatches int64
	// Resident is the current resident permutation count.
	Resident int
	// Fallback is always false: NewStreamEvaluator refuses every
	// candidate the evaluator cannot keep resident, so it never
	// degrades to per-tick full ranking. The field stays only because
	// the bench module still reports it.
	Fallback bool
}

// permKey identifies one resident permutation: the candidate's index
// in the evaluator's list, the bid and the packed zone set. Keying by
// index rather than policy name keeps two candidates that share a name
// but not their parameters apart.
type permKey struct {
	fac   int
	bid   float64
	zones uint64
}

// StreamEvaluator maintains the ranked plan table of one request shape
// incrementally over a live price feed. Not safe for concurrent use;
// the tick pipeline owns it.
type StreamEvaluator struct {
	ev  *Evaluator
	cfg StreamConfig

	// Resolved request knobs, fixed for the evaluator's lifetime so the
	// grid and the cross-check resolve identically.
	odRate   float64
	bids     []float64
	maxZones int
	cands    []PolicyFactory

	tape     *trace.Tape
	b        *batchState
	resident map[permKey]int
	dirty    bool // resident state must rebuild before the next use

	gen   uint64
	plans []Plan
	stats StreamStats
}

// NewStreamEvaluator builds a streaming evaluator for the request
// shape. ev supplies the tracer and the cross-check ranking; nil gets a
// fresh default Evaluator.
func NewStreamEvaluator(ev *Evaluator, cfg StreamConfig) (*StreamEvaluator, error) {
	if ev == nil {
		ev = NewEvaluator()
	}
	if cfg.Step == 0 {
		cfg.Step = trace.DefaultStep
	}
	if cfg.CrossCheckEvery == 0 {
		cfg.CrossCheckEvery = DefaultCrossCheckEvery
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultStreamRetention
	}
	if cfg.MaxSteps < 16 {
		return nil, fmt.Errorf("core: stream retention %d below the 16-step minimum", cfg.MaxSteps)
	}
	if cfg.Work <= 0 {
		return nil, fmt.Errorf("core: non-positive remaining work %d", cfg.Work)
	}
	if cfg.Deadline < cfg.Work {
		return nil, fmt.Errorf("core: deadline %d cannot be met: below remaining work %d", cfg.Deadline, cfg.Work)
	}
	if cfg.OnDemandRate < 0 {
		return nil, fmt.Errorf("core: negative on-demand rate %g", cfg.OnDemandRate)
	}
	tape, err := trace.NewTape(cfg.Zones, cfg.Start, cfg.Step)
	if err != nil {
		return nil, err
	}
	se := &StreamEvaluator{
		ev:       ev,
		cfg:      cfg,
		odRate:   cfg.OnDemandRate,
		bids:     cfg.Bids,
		maxZones: cfg.MaxZones,
		cands:    cfg.Candidates,
		tape:     tape,
		resident: make(map[permKey]int),
	}
	if se.odRate == 0 {
		se.odRate = market.OnDemandRate
	}
	if se.bids == nil {
		se.bids = BidGrid()
	}
	if se.maxZones <= 0 {
		se.maxZones = 3
	}
	if se.maxZones > len(cfg.Zones) {
		se.maxZones = len(cfg.Zones)
	}
	if se.cands == nil {
		se.cands = DefaultAdaptiveCandidates()
	}
	if err := checkCandidates(se.cands); err != nil {
		return nil, err
	}
	// Resident permutations are keyed by bid and packed zone set
	// (packZones: at most 8 zones, indices below 255).
	for _, bid := range se.bids {
		if !(bid > 0) {
			return nil, fmt.Errorf("core: stream bid %g is not positive", bid)
		}
	}
	if len(cfg.Zones) > 0xff {
		return nil, fmt.Errorf("core: %d stream zones, at most 255 supported", len(cfg.Zones))
	}
	if se.maxZones > 8 {
		return nil, fmt.Errorf("core: stream MaxZones %d above 8", se.maxZones)
	}
	return se, nil
}

// Generation returns the current plan-table generation (0 before the
// first tick).
func (se *StreamEvaluator) Generation() uint64 { return se.gen }

// Plans returns the current ranked table (read-only alias; nil before
// the first tick).
func (se *StreamEvaluator) Plans() []Plan { return se.plans }

// Steps returns the retained window length in samples.
func (se *StreamEvaluator) Steps() int { return se.tape.Len() }

// Stats returns a snapshot of the structural-event counters.
func (se *StreamEvaluator) Stats() StreamStats {
	st := se.stats
	if se.b != nil {
		st.Resident = len(se.b.perms)
	}
	return st
}

// request assembles the PlanRequest the current window answers —
// exactly what a cross-check Rank receives.
func (se *StreamEvaluator) request(hist *trace.Set) PlanRequest {
	return PlanRequest{
		History:        hist,
		Work:           se.cfg.Work,
		Deadline:       se.cfg.Deadline,
		CheckpointCost: se.cfg.CheckpointCost,
		RestartCost:    se.cfg.RestartCost,
		OnDemandRate:   se.odRate,
		Bids:           se.bids,
		MaxZones:       se.maxZones,
		Candidates:     se.cands,
	}
}

// Advance ingests one price tick (one sample per zone, column order)
// and returns the tick's update. Work per tick is O(zones × bids) for
// the index extension plus O(resident permutations) for the stepping
// and re-scoring — independent of the window length outside catch-ups,
// compactions and cross-checks.
func (se *StreamEvaluator) Advance(prices []float64) (StreamUpdate, error) {
	asp := se.ev.Trace.Start("stream.advance")
	defer asp.End()
	if err := se.tape.Append(prices); err != nil {
		return StreamUpdate{}, err
	}
	se.stats.Ticks++
	if se.tape.Len() > se.cfg.MaxSteps {
		se.tape = se.tape.Tail(se.cfg.MaxSteps / 2)
		se.dirty = true
		se.stats.Compactions++
	}
	hist := se.tape.Set()
	req := se.request(hist)

	plans := se.advanceIncremental(hist, &req)
	if se.cfg.CrossCheckEvery > 0 && se.stats.Ticks%uint64(se.cfg.CrossCheckEvery) == 0 {
		plans = se.crossCheck(req, plans)
	}
	return se.publish(plans), nil
}

// advanceIncremental runs the per-tick delta update and re-score,
// returning the new table.
func (se *StreamEvaluator) advanceIncremental(hist *trace.Set, req *PlanRequest) []Plan {
	usp := se.ev.Trace.Start("stream.update")
	if se.b == nil || se.dirty {
		se.rebuildState(hist)
	} else {
		se.extendState(hist)
	}
	usp.End()

	rsp := se.ev.Trace.Start("stream.rerank")
	defer rsp.End()
	slots := rankSlots(hist, se.bids, se.maxZones, se.cands)
	if len(se.b.perms) > residentSlack*len(slots) {
		se.rebuildState(hist) // prune permutations no current ordering needs
	}
	se.ensureResident(slots)
	span := float64(hist.Duration())
	ests := make([]estimate, len(slots))
	for i := range slots {
		pi := se.resident[slotPermKey(&slots[i])]
		ests[i] = se.b.closeEstimate(&se.b.perms[pi], span)
	}
	return scorePlans(req, se.odRate, slots, ests)
}

// rebuildState re-arms the batched scratch over the current window and
// drops the resident permutation set; the next ensureResident replays
// the live grid from scratch.
func (se *StreamEvaluator) rebuildState(hist *trace.Set) {
	if se.b == nil {
		se.b = &batchState{}
	}
	se.b.reset(hist, se.cfg.CheckpointCost, se.cfg.RestartCost)
	clear(se.resident)
	se.dirty = false
	se.stats.Rebuilds++
}

// extendState grows every resident structure over the tick's new
// trailing steps — columns, availability indexes, chain-fit memos and
// the prefix fitters — then steps each resident permutation through
// them, exactly as the oracle's per-step loop would have.
func (se *StreamEvaluator) extendState(hist *trace.Set) {
	b := se.b
	old := b.nsteps
	b.cols.Reset(hist)
	b.avail.Extend()
	b.nsteps = b.cols.Steps()
	b.end = b.cols.End()
	for ci, cm := range b.chains {
		key := b.chainKeys[ci]
		for len(cm.models) < b.nsteps {
			cm.models = append(cm.models, nil)
			cm.done = append(cm.done, false)
		}
		if cm.ustride > 0 {
			cm.usolve.grow(b.nsteps * cm.ustride)
		}
		if cm.pfReady {
			src := b.cols.Col(key.zone)
			if key.quantum > 0 {
				for _, p := range src[len(cm.qbuf):] {
					cm.qbuf = append(cm.qbuf, math.Round(p/key.quantum)*key.quantum)
				}
				src = cm.qbuf
			}
			cm.pf.Extend(src)
		}
	}
	for pi := range b.perms {
		p := &b.perms[pi]
		if p.ivals != nil {
			p.ivals.grow(b.nsteps)
		}
		zs := b.zoneBuf[p.zoff : p.zoff+p.nz]
		for k := range zs {
			// The tape's append may have reallocated the column.
			zs[k].col = b.cols.Col(zs[k].zone)
		}
		bill := b.billBuf[p.boff : p.boff+p.nz]
		for i := old; i < b.nsteps; i++ {
			b.stepPerm(p, zs, bill, b.start+int64(i)*b.step, i)
		}
	}
}

// ensureResident adds and catches up every grid cell that has no
// resident permutation yet.
func (se *StreamEvaluator) ensureResident(slots []rankSlot) {
	for i := range slots {
		sl := &slots[i]
		key := slotPermKey(sl)
		if _, have := se.resident[key]; have {
			continue
		}
		spec := sim.RunSpec{Bid: sl.bid, Zones: sl.zones, Policy: se.cands[sl.fac].New()}
		pi := len(se.b.perms)
		se.b.addPerm(pi, spec) // NewStreamEvaluator's checks keep every slot acceptable
		se.b.replayPerm(&se.b.perms[pi])
		se.resident[key] = pi
		se.stats.CatchUps++
	}
}

// slotPermKey is a slot's resident key; NewStreamEvaluator's limits
// guarantee its zone set packs.
func slotPermKey(sl *rankSlot) permKey {
	zk, _ := packZones(sl.zones)
	return permKey{fac: sl.fac, bid: sl.bid, zones: zk}
}

// crossCheck re-derives the table from scratch through Rank and
// reconciles: on a mismatch the reference table wins and the resident
// state is marked for rebuild, so one bad delta cannot compound.
func (se *StreamEvaluator) crossCheck(req PlanRequest, plans []Plan) []Plan {
	csp := se.ev.Trace.Start("stream.crosscheck")
	defer csp.End()
	se.stats.CrossChecks++
	ref, err := se.ev.Rank(req)
	if err != nil || !plansEqual(plans, ref) {
		se.stats.CrossCheckMismatches++
		se.dirty = true
		if ref != nil {
			return ref
		}
	}
	return plans
}

// publish diffs the tick's table against the published one, advancing
// the generation only when something changed.
func (se *StreamEvaluator) publish(plans []Plan) StreamUpdate {
	upd := StreamUpdate{
		Tick:  se.stats.Ticks,
		Steps: se.tape.Len(),
		At:    se.tape.End() - se.cfg.Step,
	}
	if se.gen == 0 || !plansEqual(plans, se.plans) {
		upd.Changed = true
		upd.BestChanged = len(se.plans) == 0 || len(plans) == 0 || !planEqual(&plans[0], &se.plans[0])
		upd.ChangedRanks = changedRanks(plans, se.plans)
		se.gen++
		se.plans = plans
	}
	upd.Generation = se.gen
	upd.Plans = se.plans
	return upd
}

// f64eq compares floats by bit pattern — the streaming contract is
// bit-identicality, so NaNs compare equal to themselves and nothing
// else collapses.
func f64eq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// planEqual reports whether two plans are bitwise-identical.
func planEqual(a, b *Plan) bool {
	if !f64eq(a.Bid, b.Bid) || a.Policy != b.Policy ||
		!f64eq(a.PredictedCost, b.PredictedCost) ||
		!f64eq(a.ProgressRate, b.ProgressRate) ||
		!f64eq(a.CostRate, b.CostRate) ||
		a.PredictedFinish != b.PredictedFinish ||
		a.DeadlineMargin != b.DeadlineMargin ||
		len(a.Zones) != len(b.Zones) {
		return false
	}
	for i := range a.Zones {
		if a.Zones[i] != b.Zones[i] {
			return false
		}
	}
	return true
}

// plansEqual reports whether two tables are bitwise-identical.
func plansEqual(a, b []Plan) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !planEqual(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// changedRanks counts table positions whose plan differs.
func changedRanks(a, b []Plan) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	c := 0
	for i := 0; i < n; i++ {
		if i >= len(a) || i >= len(b) || !planEqual(&a[i], &b[i]) {
			c++
		}
	}
	return c
}
