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
// consecutive requests differ by one tick. A StreamGrid inverts that
// dataflow: it keeps every permutation's batched replay state
// (batch.go) live at the end of a window that grows one tick at a
// time, and on each tick extends the columnar views, availability
// indexes and fit memos in place, steps every resident permutation by
// exactly one interval, and re-scores the table from non-destructive
// meter closes — O(permutations) work per tick, O(delta) in the window.
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
// (CrossCheckEvery) re-derives the estimates through Rank's estimate
// step and counts — and corrects — any divergence, turning the
// invariant into a runtime check rather than a test-only one.
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
// The resident state is bounded by what the head can read. A resident
// permutation steps only through the steps a tick appends, so between
// ticks a grid keeps one fitted chain per chain memo, the head step's
// uptime slots and each permutation's head interval slot (keepHead),
// beside each fitter's counts, the columnar view of the window, whose
// chain states the tape keeps, and the availability flips a catch-up
// replays over. A catch-up or rebuild re-arms the memos it reads over
// the whole window for the duration of its replay, and the tick
// releases them again before it returns; every entry is a pure function
// of the window, so a released entry that is recomputed is the same
// float.
//
// Every grid cell stays resident: NewStreamGrid refuses what the
// batched engine cannot replay or a permutation key cannot hold — a
// policy family beyond Periodic and Markov-Daly, a non-positive or
// non-finite bid, more than 255 zones, more than 8 zones per set. Any
// mix of
// Periodic and Markov-Daly candidates, whatever their parameters, is
// accepted.
//
// The window itself is not the grid's: Advance reads it from the
// caller, who owns the one price tape and its retention. A
// quote.Streamer steps every grid it holds over its single tape; a
// StreamEvaluator owns a private tape, compacted by the same rule
// (trace.Tape.Trim). The grid keeps only where its window starts and
// how long it is, and rebuilds when the caller's tape compacts or
// restarts under it.
//
// The resident state splits along the Inequality (1) boundary. A
// StreamGrid owns everything the replays depend on — batched state,
// resident permutations, the live grid and its per-slot estimates,
// catch-up and the cross-check — which is a function of the window and
// the grid knobs (bids, redundancy bound, candidates, t_c, t_r) alone:
// estimation replays run with effectively unbounded work and deadline
// (estimationCfg). A StreamScorer owns what one request shape adds —
// remaining work, deadline, on-demand rate — and turns the grid's
// estimates into its ranked table, generation and diff. Any number of
// shapes share one grid; a StreamEvaluator is one tape, one grid and
// one scorer, stepped through the same code.
//
// Grids and scorers are single-goroutine by design: the tick pipeline
// owns them, and everything downstream reads published snapshots.

// Streaming evaluator defaults: the cross-check cadence and the
// retention bound (in steps) past which a StreamEvaluator's tape
// compacts to half.
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
// plus the feed geometry the windows share.
type StreamConfig struct {
	// Zones names the feed's availability zones, in column order.
	Zones []string
	// Start is the absolute time of the first tick's sample. Only
	// NewStreamEvaluator reads it, to anchor its tape; a grid reads
	// each window's start from the window.
	Start int64
	// Step is the tick interval in seconds; 0 selects trace.DefaultStep.
	// A grid refuses windows sampled at another interval.
	Step int64

	// Work and Deadline are the remaining computation C_r and
	// wall-clock budget T_r in seconds, as in PlanRequest. They and
	// OnDemandRate are the scorer's; NewStreamGrid ignores them.
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
	// Candidates are the policies ranked; nil selects
	// DefaultAdaptiveCandidates().
	Candidates []PolicySpec

	// CrossCheckEvery is the tick cadence of the full-rebuild
	// cross-check; 0 selects DefaultCrossCheckEvery, negative disables
	// it.
	CrossCheckEvery int
	// MaxSteps bounds a StreamEvaluator's tape: past it the tape keeps
	// its trailing MaxSteps/2 rows (trace.Tape.Trim) and the resident
	// state rebuilds over the shortened window. 0 selects
	// DefaultStreamRetention. A grid's window is its caller's, so
	// NewStreamGrid ignores it.
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
	// Tick is the feed tick of the window's last row, as the caller of
	// StreamGrid.Advance numbers it; a StreamEvaluator counts its own
	// ticks from 1.
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

// StreamStats counts a grid's structural events, for metrics and the
// cross-check's divergence accounting.
type StreamStats struct {
	// Ticks is the feed tick of the grid's latest window.
	Ticks uint64
	// Rebuilds counts full resident-state rebuilds (first tick,
	// compactions, prunes, cross-check corrections).
	Rebuilds int64
	// Compactions counts the windows whose start moved under the grid —
	// its caller's tape compacted or restarted — each followed by a
	// rebuild.
	Compactions int64
	// CatchUps counts permutations that entered the grid mid-stream and
	// replayed over the accumulated window.
	CatchUps int64
	// CrossChecks counts full-rebuild cross-checks run.
	CrossChecks int64
	// CrossCheckMismatches counts cross-checks whose from-scratch
	// estimates differed from the incremental ones (the reference
	// estimates are adopted and the resident state rebuilt).
	CrossCheckMismatches int64
	// Resident is the current resident permutation count.
	Resident int
	// Fallback is always false: NewStreamGrid refuses every
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

// StreamGrid is the shape-independent half of streaming evaluation:
// the resident batched replay state, the live permutation grid and its
// per-slot estimates over one (bid grid, redundancy bound, candidates,
// t_c, t_r) grid, stepped over windows its caller owns. Remaining work,
// deadline and on-demand rate enter only the Inequality (1) scoring, so
// every request shape over the same grid shares one StreamGrid and
// keeps only a StreamScorer. Advance steps the grid once per tick and
// then scores and publishes every attached scorer. Not safe for
// concurrent use; the tick pipeline owns it.
type StreamGrid struct {
	ev  *Evaluator
	cfg StreamConfig

	// Resolved grid knobs, fixed for the grid's lifetime so the live
	// grid and the cross-check resolve identically.
	bids     []float64
	maxZones int
	cands    []PolicySpec

	b        *batchState
	resident map[permKey]int
	dirty    bool // resident state must rebuild before the next use

	// Where the window the state covers starts and how many samples it
	// holds; steps is 0 before the first window.
	start int64
	steps int

	// The live grid over the current window and its estimates; nil
	// before the first tick.
	slots []rankSlot
	ests  []estimate

	scorers []*StreamScorer
	stats   StreamStats
}

// StreamScorer is the shape-dependent half of streaming evaluation: one
// request shape's remaining work, deadline and on-demand rate, scored
// against its grid's estimates, plus the published table, its
// generation and the last tick's diff.
type StreamScorer struct {
	g        *StreamGrid
	work     int64
	deadline int64
	odRate   float64

	gen   uint64
	plans []Plan
	next  []Plan // this tick's table, published after the cross-check
	upd   StreamUpdate
}

// StreamEvaluator maintains the ranked plan table of one request shape
// incrementally over a live price feed: its own price tape, bounded by
// MaxSteps, and one StreamGrid with one attached StreamScorer stepped
// over it. Not safe for concurrent use; the tick pipeline owns it.
type StreamEvaluator struct {
	tape  *trace.Tape
	keep  int    // the tape's Trim bound, MaxSteps/2
	ticks uint64 // rows appended
	g     *StreamGrid
	s     *StreamScorer
}

// NewStreamEvaluator builds a streaming evaluator for the request
// shape. ev supplies the tracer and the cross-check estimates; nil gets
// a fresh default Evaluator.
func NewStreamEvaluator(ev *Evaluator, cfg StreamConfig) (*StreamEvaluator, error) {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultStreamRetention
	}
	if cfg.MaxSteps < 16 {
		return nil, fmt.Errorf("core: stream retention %d below the 16-step minimum", cfg.MaxSteps)
	}
	g, err := NewStreamGrid(ev, cfg)
	if err != nil {
		return nil, err
	}
	tape, _ := trace.NewTape(cfg.Zones, cfg.Start, g.cfg.Step) // NewStreamGrid checked the zones and step
	s, err := g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
	if err != nil {
		return nil, err
	}
	return &StreamEvaluator{tape: tape, keep: cfg.MaxSteps / 2, g: g, s: s}, nil
}

// Advance ingests one price tick (one sample per zone, column order)
// and returns the tick's update.
func (se *StreamEvaluator) Advance(prices []float64) (StreamUpdate, error) {
	if err := se.tape.Append(prices); err != nil {
		return StreamUpdate{}, err
	}
	se.tape.Trim(se.keep)
	se.ticks++
	if err := se.g.Advance(se.tape.Set(), se.ticks); err != nil {
		return StreamUpdate{}, err
	}
	return se.s.Update(), nil
}

// Generation returns the current plan-table generation (0 before the
// first tick).
func (se *StreamEvaluator) Generation() uint64 { return se.s.Generation() }

// Plans returns the current ranked table (read-only alias; nil before
// the first tick).
func (se *StreamEvaluator) Plans() []Plan { return se.s.Plans() }

// Steps returns the retained window length in samples.
func (se *StreamEvaluator) Steps() int { return se.tape.Len() }

// Stats returns a snapshot of the structural-event counters.
func (se *StreamEvaluator) Stats() StreamStats { return se.g.Stats() }

// NewStreamGrid builds the shape-independent streaming state for cfg's
// zones, step and grid knobs. Work, Deadline and OnDemandRate are read
// only by Attach; Start and MaxSteps describe a tape, which a grid
// does not own. ev supplies the tracer and the cross-check estimates;
// nil gets a fresh default Evaluator.
func NewStreamGrid(ev *Evaluator, cfg StreamConfig) (*StreamGrid, error) {
	if ev == nil {
		ev = NewEvaluator()
	}
	if cfg.Step == 0 {
		cfg.Step = trace.DefaultStep
	}
	if cfg.CrossCheckEvery == 0 {
		cfg.CrossCheckEvery = DefaultCrossCheckEvery
	}
	if len(cfg.Zones) == 0 || cfg.Step < 0 {
		return nil, fmt.Errorf("core: stream needs at least one zone and a positive step, got %d zones, step %d", len(cfg.Zones), cfg.Step)
	}
	g := &StreamGrid{ev: ev, cfg: cfg, resident: make(map[permKey]int)}
	g.bids, g.maxZones, g.cands = resolveGrid(cfg.Bids, cfg.MaxZones, len(cfg.Zones), cfg.Candidates)
	if err := checkCandidates(g.cands); err != nil {
		return nil, err
	}
	// Resident permutations are keyed by bid and packed zone set
	// (packZones: at most 8 zones, indices below 255).
	if err := checkBids(g.bids); err != nil {
		return nil, err
	}
	for _, bid := range g.bids {
		if !(bid > 0) {
			return nil, fmt.Errorf("core: stream bid %g is not positive", bid)
		}
	}
	if len(cfg.Zones) > 0xff {
		return nil, fmt.Errorf("core: %d stream zones, at most 255 supported", len(cfg.Zones))
	}
	if g.maxZones > 8 {
		return nil, fmt.Errorf("core: stream MaxZones %d above 8", g.maxZones)
	}
	return g, nil
}

// Attach adds a request shape to the grid and returns its scorer. On a
// grid that already holds a window the scorer scores it at once: its
// first table is generation 1 over the grid's current window.
func (g *StreamGrid) Attach(work, deadline int64, odRate float64) (*StreamScorer, error) {
	if work <= 0 {
		return nil, fmt.Errorf("core: non-positive remaining work %d", work)
	}
	if deadline < work {
		return nil, fmt.Errorf("core: deadline %d cannot be met: below remaining work %d", deadline, work)
	}
	if err := checkRates(odRate, g.cfg.CheckpointCost, g.cfg.RestartCost); err != nil {
		return nil, err
	}
	if odRate == 0 {
		odRate = market.OnDemandRate
	}
	s := &StreamScorer{g: g, work: work, deadline: deadline, odRate: odRate}
	g.scorers = append(g.scorers, s)
	if g.ests != nil {
		s.next = s.scored()
		s.publish()
	}
	return s, nil
}

// Detach removes a scorer from the grid, so later ticks no longer score
// it, and returns how many scorers remain attached.
func (g *StreamGrid) Detach(s *StreamScorer) int {
	for i, o := range g.scorers {
		if o == s {
			g.scorers = append(g.scorers[:i], g.scorers[i+1:]...)
			break
		}
	}
	return len(g.scorers)
}

// Steps returns the length in samples of the window the grid last
// stepped to.
func (g *StreamGrid) Steps() int { return g.steps }

// Stats returns a snapshot of the structural-event counters.
func (g *StreamGrid) Stats() StreamStats {
	st := g.stats
	if g.b != nil {
		st.Resident = len(g.b.perms)
	}
	return st
}

// Advance steps the grid to hist, the feed window whose last row is
// feed tick tick, then scores and publishes every attached scorer. A
// window that starts where the last one did extends the resident state
// over its new trailing rows; one whose start moved (the caller's tape
// compacted or restarted) rebuilds it. The grid keeps no copy of the
// window, so hist must hold the previous window's rows as its prefix
// whenever its start did not move, and must not change until the next
// Advance — a trace.Tape's Set view, or a slice of it, qualifies. Work
// per tick is O(zones × bids) for the index extension plus O(resident
// permutations) for the stepping and the estimate close, plus one
// scorePlans per scorer — independent of the window length outside
// catch-ups, compactions and cross-checks.
func (g *StreamGrid) Advance(hist *trace.Set, tick uint64) error {
	asp := g.ev.Trace.Start("stream.advance")
	defer asp.End()
	n, err := g.checkWindow(hist)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("core: stream window holds no samples")
	}
	if g.steps > 0 && (hist.Start() != g.start || n < g.steps) {
		g.dirty = true
		g.stats.Compactions++
	}
	g.start, g.steps = hist.Start(), n
	g.stats.Ticks = tick

	usp := g.ev.Trace.Start("stream.update")
	if g.b == nil || g.dirty {
		g.rebuildState(hist)
	} else {
		g.extendState(hist)
	}
	usp.End()

	rsp := g.ev.Trace.Start("stream.rerank")
	g.rerank(hist)
	for _, s := range g.scorers {
		s.next = s.scored()
	}
	rsp.End()

	if g.cfg.CrossCheckEvery > 0 && g.stats.Ticks%uint64(g.cfg.CrossCheckEvery) == 0 {
		g.crossCheck(hist)
	}
	g.b.keepHead()
	for _, s := range g.scorers {
		s.publish()
	}
	return nil
}

// checkWindow returns the window's length in samples, refusing one
// whose zones or step are not the grid's.
func (g *StreamGrid) checkWindow(hist *trace.Set) (int, error) {
	if hist == nil || hist.NumZones() != len(g.cfg.Zones) || hist.Step() != g.cfg.Step {
		return 0, fmt.Errorf("core: stream window's geometry is not the grid's (%d zones, step %d)", len(g.cfg.Zones), g.cfg.Step)
	}
	return hist.Series[0].Len(), nil
}

// rerank re-derives the live grid over the window's current zone
// ordering, catches up the cells that have no resident permutation yet
// and closes every cell's estimate.
func (g *StreamGrid) rerank(hist *trace.Set) {
	g.slots = rankSlots(hist, g.bids, g.maxZones, g.cands)
	if len(g.b.perms) > residentSlack*len(g.slots) {
		g.rebuildState(hist) // prune permutations no current ordering needs
	}
	g.ensureResident(g.slots)
	span := float64(hist.Duration())
	g.ests = make([]estimate, len(g.slots))
	for i := range g.slots {
		pi := g.resident[slotPermKey(&g.slots[i])]
		g.ests[i] = g.b.closeEstimate(&g.b.perms[pi], span)
	}
}

// rebuildState re-arms the batched scratch over the current window and
// drops the resident permutation set; the next ensureResident replays
// the live grid from scratch.
func (g *StreamGrid) rebuildState(hist *trace.Set) {
	if g.b == nil {
		g.b = &batchState{}
	}
	g.b.reset(hist, g.cfg.CheckpointCost, g.cfg.RestartCost)
	clear(g.resident)
	g.dirty = false
	g.stats.Rebuilds++
}

// extendState slides the batched scratch over the tick's new trailing
// steps (advance: columns, availability indexes, window fitters), grows
// the chain-fit and interval memos over them, then steps each resident
// permutation through them, exactly as the oracle's per-step loop would
// have.
func (g *StreamGrid) extendState(hist *trace.Set) {
	b := g.b
	old := b.nsteps
	b.advance(hist, 0)
	for _, cm := range b.chains {
		for cm.base+len(cm.fits) < b.nsteps {
			cm.fits = append(cm.fits, stepFit{})
		}
		if cm.ustride > 0 {
			cm.usolve.grow(b.nsteps * cm.ustride)
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
func (g *StreamGrid) ensureResident(slots []rankSlot) {
	for i := range slots {
		sl := &slots[i]
		key := slotPermKey(sl)
		if _, have := g.resident[key]; have {
			continue
		}
		spec := sim.RunSpec{Bid: sl.bid, Zones: sl.zones, Policy: g.cands[sl.fac].New()}
		pi := len(g.b.perms)
		g.b.addPerm(spec) // NewStreamGrid's checks keep every slot acceptable
		g.b.replayPerm(&g.b.perms[pi])
		g.resident[key] = pi
		g.stats.CatchUps++
	}
}

// slotPermKey is a slot's resident key; NewStreamGrid's limits
// guarantee its zone set packs.
func slotPermKey(sl *rankSlot) permKey {
	zk, _ := packZones(sl.zones)
	return permKey{fac: sl.fac, bid: sl.bid, zones: zk}
}

// estimate runs Rank's estimate step over a window with the grid's
// knobs — the from-scratch reference the cross-check and Restore use.
func (g *StreamGrid) estimate(hist *trace.Set) ([]rankSlot, []estimate) {
	return g.ev.estimateSlots(hist, g.cfg.CheckpointCost, g.cfg.RestartCost, g.bids, g.maxZones, g.cands)
}

// crossCheck re-derives the window's estimates from scratch through
// Rank's estimate step and reconciles, once per grid whatever the
// number of scorers: on a mismatch the reference estimates win, every
// scorer re-scores them, and the resident state is marked for rebuild,
// so one bad delta cannot compound.
func (g *StreamGrid) crossCheck(hist *trace.Set) {
	csp := g.ev.Trace.Start("stream.crosscheck")
	defer csp.End()
	g.stats.CrossChecks++
	_, ref := g.estimate(hist)
	if estimatesEqual(g.ests, ref) {
		return
	}
	g.stats.CrossCheckMismatches++
	g.dirty = true
	g.ests = ref
	for _, s := range g.scorers {
		s.next = s.scored()
	}
}

// estimatesEqual reports whether two estimate lists are
// bitwise-identical.
func estimatesEqual(a, b []estimate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !f64eq(a[i].progressRate, b[i].progressRate) || !f64eq(a[i].costRate, b[i].costRate) {
			return false
		}
	}
	return true
}

// Generation returns the scorer's plan-table generation (0 before its
// first table).
func (s *StreamScorer) Generation() uint64 { return s.gen }

// Plans returns the scorer's current ranked table (read-only alias; nil
// before its first table).
func (s *StreamScorer) Plans() []Plan { return s.plans }

// Update returns the scorer's latest update: the last tick's outcome,
// its attach-time table on a grid that already held a window, or its
// restored state.
func (s *StreamScorer) Update() StreamUpdate { return s.upd }

// request assembles the PlanRequest a window answers for this shape —
// exactly what a from-scratch Rank over hist receives.
func (s *StreamScorer) request(hist *trace.Set) PlanRequest {
	g := s.g
	return PlanRequest{
		History:        hist,
		Work:           s.work,
		Deadline:       s.deadline,
		CheckpointCost: g.cfg.CheckpointCost,
		RestartCost:    g.cfg.RestartCost,
		OnDemandRate:   s.odRate,
		Bids:           g.bids,
		MaxZones:       g.maxZones,
		Candidates:     g.cands,
	}
}

// scored is the shape's table over the grid's current estimates.
func (s *StreamScorer) scored() []Plan {
	req := s.request(nil)
	return scorePlans(&req, s.g.cfg.Step, s.odRate, s.g.slots, s.g.ests)
}

// publish diffs the scored table against the published one, advancing
// the generation only when something changed.
func (s *StreamScorer) publish() {
	plans := s.next
	s.next = nil
	g := s.g
	upd := StreamUpdate{
		Tick:  g.stats.Ticks,
		Steps: g.steps,
		At:    g.at(),
	}
	if s.gen == 0 || !plansEqual(plans, s.plans) {
		upd.Changed = true
		upd.BestChanged = len(s.plans) == 0 || len(plans) == 0 || !planEqual(&plans[0], &s.plans[0])
		upd.ChangedRanks = changedRanks(plans, s.plans)
		s.gen++
		s.plans = plans
	}
	upd.Generation = s.gen
	upd.Plans = s.plans
	s.upd = upd
}

// at is the absolute time of the grid's last sample.
func (g *StreamGrid) at() int64 { return g.start + int64(g.steps-1)*g.cfg.Step }

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
