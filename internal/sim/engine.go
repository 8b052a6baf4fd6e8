package sim

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/market"
	"repro/internal/obs"
)

// Machine is the incremental form of the simulation engine: one Step
// call advances the Algorithm 1 state machine by a single 5-minute
// interval. Run drives a Machine to completion over a fixed trace; the
// live scheduler drives one in wall-clock time over a trace that grows
// as price updates arrive. A finished Machine can be re-armed for a new
// run with Reset, which reuses every internal buffer.
type Machine struct {
	env         *Env
	strat       Strategy
	pendingSpec *RunSpec
	specBuf     RunSpec
	result      *Result
	events      []Event
}

// ErrNoData reports that the machine's trace does not yet cover the
// next step; callers feeding a live trace append more samples and
// retry.
var ErrNoData = errors.New("sim: trace does not cover the next step")

// NewMachine validates the configuration, asks the strategy for its
// initial spec, and returns a machine positioned at the first step. A
// zero-zone spec (the on-demand baseline) completes immediately.
func NewMachine(cfg Config, strat Strategy) (*Machine, error) {
	m := &Machine{}
	if err := m.Reset(cfg, strat); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset re-arms the machine for a new run without reallocating zone
// state, the billing ledger, the event scratch buffer or the RNG: a
// reset machine reproduces a freshly built one bit-for-bit (the run's
// random stream is reseeded from cfg.Seed). The previous run's Result
// and Env aliased the machine's internal buffers, so both must be fully
// consumed — or cloned — before Reset is called.
func (m *Machine) Reset(cfg Config, strat Strategy) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if v, ok := strat.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	if m.env == nil {
		m.env = &Env{}
	}
	env := m.env
	env.reset(cfg)
	m.strat = strat
	m.pendingSpec = nil
	m.result = nil
	m.events = m.events[:0]

	env.Spec = strat.Begin(env)
	if err := checkSpec(env, env.Spec); err != nil {
		return err
	}
	env.res.Strategy = strat.Name()
	if env.Spec.Policy != nil {
		env.res.Policy = env.Spec.Policy.Name()
		env.Spec.Policy.Reset(env)
	}
	if len(env.Spec.Zones) == 0 {
		// Pure on-demand execution: start immediately, run uninterrupted.
		m.result = finishOnDemand(env)
	}
	return nil
}

// Done reports whether the run has finished.
func (m *Machine) Done() bool { return m.result != nil }

// Result returns the final result, or nil while the run is ongoing.
func (m *Machine) Result() *Result { return m.result }

// Env exposes the engine state (read-mostly; external mutation is for
// tests only).
func (m *Machine) Env() *Env { return m.env }

// Now returns the machine's current simulated time.
func (m *Machine) Now() int64 { return m.env.Now }

// HasData reports whether the trace covers the machine's next step.
func (m *Machine) HasData() bool { return m.env.Now < m.env.Cfg.Trace.End() }

// Step advances the machine by one interval. It returns ErrNoData when
// the trace does not cover the step (live mode: feed more samples), and
// is a no-op once the run is done.
func (m *Machine) Step() error {
	if m.result != nil {
		return nil
	}
	if !m.HasData() {
		return ErrNoData
	}
	env := m.env
	cfg := env.Cfg
	events := m.events[:0]

	// Billing: commit completed instance-hours, noting boundaries.
	for zi := range env.Zones {
		z := &env.Zones[zi]
		if z.State != Up {
			continue
		}
		before := z.Meter.HourStart()
		z.Meter.Advance(env.Now, env.rateFn(zi), &env.ledger)
		if z.Meter.HourStart() != before {
			events = append(events, Event{Kind: HourBoundary, Zone: zi, Time: z.Meter.HourStart()})
		}
	}

	// Instance state updates against the current spot prices
	// (Algorithm 1 lines 2-8, plus our queuing-delay Pending state).
	for _, zi := range env.Spec.Zones {
		z := &env.Zones[zi]
		s := env.PriceNow(zi)
		switch z.State {
		case Up:
			if s > env.Spec.Bid {
				env.providerKill(z)
				events = append(events, Event{Kind: ProviderKill, Zone: zi, Time: env.Now})
			}
		case Pending:
			if s > env.Spec.Bid {
				z.State = Down
				env.timeline(TLZoneDown, zi, "request-cancelled")
			} else if z.ReadyAt <= env.Now {
				env.promote(z)
			}
		case Waiting:
			if s > env.Spec.Bid {
				z.State = Down
				env.timeline(TLZoneDown, zi, "out-of-bid")
			}
		case Down:
			if s <= env.Spec.Bid && env.mayStart(zi) {
				z.State = Waiting
				env.timeline(TLZoneWaiting, zi, "")
			}
		}
	}

	// Checkpoint completion commits progress and wakes waiting zones
	// from the fresh checkpoint (lines 17-25).
	if env.ck != nil && env.Now >= env.ck.endsAt {
		env.commitCheckpoint()
		if m.pendingSpec != nil {
			env.applySpec(*m.pendingSpec)
			m.pendingSpec = nil
		}
	}

	// Deadline guard (line 11): switch to on-demand the moment the
	// remaining slack only just covers the remaining *committed* work
	// plus migration. Committed progress never rolls back, so this
	// guarantee survives any termination pattern.
	if !cfg.DisableDeadlineGuard {
		slack := env.guardSlack()
		if slack <= 0 {
			if cfg.ObsTrace != nil {
				cfg.ObsTrace.Record(obs.Span{
					Name: "sim.deadline-guard", Clock: obs.SimClock,
					Start: env.Now, End: env.Now,
				})
			}
			m.result = finishViaOnDemand(env)
			return nil
		}
		// When the guard is one checkpoint away from firing, force a
		// protective checkpoint so speculative progress is committed
		// before slack (computed against P) runs out.
		if slack <= cfg.CheckpointCost+2*env.Step && env.ck == nil && env.UncommittedProgress() > 0 {
			env.beginCheckpoint()
		}
	}

	// Strategy decision points (the Adaptive triggers). The event slice
	// is the machine's scratch buffer, reused across steps; strategies
	// must not retain it.
	m.events = events
	if len(events) > 0 {
		if spec, ok := m.strat.Reconsider(env, events); ok && !spec.Equal(env.Spec) {
			if err := checkSpec(env, spec); err != nil {
				return err
			}
			m.specBuf = spec
			m.pendingSpec = &m.specBuf
		}
	}
	// Apply a requested switch, committing uncommitted progress through
	// a protective checkpoint first.
	if m.pendingSpec != nil && env.ck == nil {
		if env.needsProtectiveCheckpoint() {
			env.beginCheckpoint()
		}
		if env.ck == nil {
			env.applySpec(*m.pendingSpec)
			m.pendingSpec = nil
		}
	}

	// Policy hooks.
	if env.AnyUp() {
		if rel, ok := env.Spec.Policy.(Releaser); ok {
			for _, zi := range env.Spec.Zones {
				z := &env.Zones[zi]
				if z.State != Up {
					continue
				}
				if env.ck != nil && env.ck.zone == z.Index {
					continue // release after the checkpoint lands
				}
				if rel.ShouldRelease(env, z.Index) {
					env.releaseUser(z)
				}
			}
		}
		if env.ck == nil && env.AnyUp() && env.Spec.Policy.CheckpointCondition(env) {
			env.beginCheckpoint()
		}
	} else if env.startWaiting() {
		// No zone up: restart every waiting zone from the previous
		// checkpoint (lines 29-33).
		env.Spec.Policy.ScheduleNextCheckpoint(env)
	}

	// Compute over [Now, Now+Step) on every up zone (line 38).
	for _, zi := range env.Spec.Zones {
		z := &env.Zones[zi]
		if z.State != Up {
			continue
		}
		activeStart := env.Now
		if z.BusyUntil > activeStart {
			activeStart = z.BusyUntil
		}
		end := env.Now + env.Step
		if activeStart >= end {
			continue
		}
		needed := cfg.Work - z.Progress
		avail := end - activeStart
		if needed <= avail {
			m.result = finishComplete(env, z, activeStart+needed)
			return nil
		}
		z.Progress += avail
	}

	env.Now += env.Step
	return nil
}

// ForceOnDemand abandons the spot market immediately and finishes the
// job on the on-demand fallback, exactly as the deadline guard would:
// the best of a final checkpoint, the last committed checkpoint or a
// from-scratch restart is migrated on-demand and billed. The live
// scheduler's feed watchdog calls this when the price feed degrades
// past the point where waiting for data is safe — firing early only
// leaves more slack, so the deadline guarantee is preserved. It is a
// no-op on a finished machine.
func (m *Machine) ForceOnDemand() *Result {
	if m.result == nil {
		if t := m.env.Cfg.ObsTrace; t != nil {
			t.Record(obs.Span{
				Name: "sim.force-on-demand", Clock: obs.SimClock,
				Start: m.env.Now, End: m.env.Now,
			})
		}
		m.result = finishViaOnDemand(m.env)
	}
	return m.result
}

// FinishEstimation closes out a guard-disabled run at the end of its
// trace (billing every running meter as user-terminated) and returns
// the result. It is how estimation replays and live shutdowns conclude.
func (m *Machine) FinishEstimation() *Result {
	if m.result != nil {
		return m.result
	}
	env := m.env
	for zi := range env.Zones {
		z := &env.Zones[zi]
		if z.State == Up {
			z.Meter.Close(env.Now, market.ByUser, env.rateFn(zi), &env.ledger)
			z.Meter = nil
			z.State = Down
		}
	}
	m.result = env.finalize()
	return m.result
}

// Run executes one experiment under the given strategy and returns its
// result. The run is deterministic for a fixed configuration. It is a
// thin wrapper over the Machine stepper; callers running many
// configurations back to back should prefer a pooled machine
// (AcquireMachine / ReleaseMachine) to amortise allocations.
func Run(cfg Config, strat Strategy) (*Result, error) {
	m, err := NewMachine(cfg, strat)
	if err != nil {
		return nil, err
	}
	return m.runToCompletion()
}

// runToCompletion drives the machine until the run finishes, closing
// out guard-disabled estimation runs at the end of their trace.
func (m *Machine) runToCompletion() (*Result, error) {
	for !m.Done() {
		if !m.HasData() {
			if !m.env.Cfg.DisableDeadlineGuard {
				return nil, errors.New("sim: trace ended before the deadline guard fired; deadline must fit the trace window")
			}
			// Estimation runs end with the trace; close out billing.
			return m.FinishEstimation(), nil
		}
		if err := m.Step(); err != nil {
			return nil, err
		}
	}
	return m.Result(), nil
}

// checkSpec validates a strategy-provided spec.
func checkSpec(env *Env, spec RunSpec) error {
	for i, zi := range spec.Zones {
		if zi < 0 || zi >= len(env.Zones) {
			return fmt.Errorf("sim: spec zone index %d out of range", zi)
		}
		for _, zj := range spec.Zones[:i] {
			if zj == zi {
				return fmt.Errorf("sim: spec repeats zone %d", zi)
			}
		}
	}
	if len(spec.Zones) > 0 && spec.Policy == nil {
		return errors.New("sim: spec has zones but no policy")
	}
	if len(spec.Zones) > 0 && spec.Bid <= 0 {
		return fmt.Errorf("sim: non-positive bid %g", spec.Bid)
	}
	return nil
}

// rateFn returns the spot price lookup for a zone's billing meter,
// cached per zone so the hot billing path does not allocate a closure
// every step.
func (e *Env) rateFn(zone int) func(int64) float64 {
	if zone < len(e.rateFns) && e.rateFns[zone] != nil {
		return e.rateFns[zone]
	}
	return func(t int64) float64 { return e.Price(zone, t) }
}

func (e *Env) mayStart(zone int) bool {
	if adm, ok := e.Spec.Policy.(Admission); ok {
		return adm.MayStart(e, zone)
	}
	return true
}

// providerKill handles an out-of-bid termination: the in-progress hour
// is free and all speculative progress is lost.
func (e *Env) providerKill(z *ZoneState) {
	z.Meter.Close(e.Now, market.ByProvider, e.rateFn(z.Index), &e.ledger)
	z.Meter = nil
	z.State = Down
	if lost := z.Progress - e.Committed; lost > 0 {
		e.res.ReworkSeconds += lost
	}
	z.Progress = e.Committed
	e.res.ProviderKills++
	e.timeline(TLZoneDown, z.Index, "provider-kill")
	if e.ck != nil && e.ck.zone == z.Index {
		e.ck = nil
		e.res.AbortedCheckpoints++
		e.timeline(TLCheckpointAborted, z.Index, "")
	}
}

// releaseUser handles a voluntary termination; the started hour is paid.
func (e *Env) releaseUser(z *ZoneState) {
	z.Meter.Close(e.Now, market.ByUser, e.rateFn(z.Index), &e.ledger)
	z.Meter = nil
	z.State = Down
	if lost := z.Progress - e.Committed; lost > 0 {
		e.res.ReworkSeconds += lost
	}
	z.Progress = e.Committed
	e.res.UserReleases++
	e.timeline(TLZoneDown, z.Index, "user-release")
}

// promote turns a Pending request into a running instance. Billing
// starts when the instance became usable; a restart that loads a
// checkpoint keeps the replica busy for the restart cost.
func (e *Env) promote(z *ZoneState) {
	z.State = Up
	z.UpSince = z.ReadyAt
	z.Meter = market.OpenSpotMeter(z.Name, z.ReadyAt, e.Price(z.Index, z.ReadyAt))
	z.Progress = e.Committed
	z.BusyUntil = z.ReadyAt
	if z.restore {
		z.BusyUntil += e.Cfg.RestartCost
		e.res.OverheadSeconds += e.Cfg.RestartCost
		e.res.Restarts++
	}
	e.LastRestartAt = z.ReadyAt
	e.timeline(TLZoneUp, z.Index, "")
}

// startWaiting submits spot requests for every admissible waiting zone;
// it reports whether any request was submitted.
func (e *Env) startWaiting() bool {
	any := false
	for _, zi := range e.Spec.Zones {
		z := &e.Zones[zi]
		if z.State != Waiting || !e.mayStart(z.Index) {
			continue
		}
		z.State = Pending
		z.ReadyAt = e.Now + e.delay.Sample(e.rng)
		z.restore = e.Committed > 0
		any = true
		e.timeline(TLZonePending, z.Index, "")
		if z.ReadyAt <= e.Now {
			e.promote(z)
		}
	}
	return any
}

// beginCheckpoint starts a checkpoint on the most advanced non-busy up
// zone, if it has anything uncommitted.
func (e *Env) beginCheckpoint() {
	var leader *ZoneState
	for _, zi := range e.Spec.Zones {
		z := &e.Zones[zi]
		if z.State != Up || z.BusyUntil > e.Now {
			continue
		}
		if leader == nil || z.Progress > leader.Progress {
			leader = z
		}
	}
	if leader == nil {
		return
	}
	snap := leader.Progress
	if it := e.Cfg.IterationSeconds; it > 0 {
		// A checkpoint captures completed iterations only (the paper's
		// MPI_Pcontrol progress granularity).
		snap = snap / it * it
	}
	if snap <= e.Committed {
		return
	}
	e.ckBuf = checkpoint{zone: leader.Index, endsAt: e.Now + e.Cfg.CheckpointCost, snap: snap}
	e.ck = &e.ckBuf
	leader.BusyUntil = e.ck.endsAt
	e.timeline(TLCheckpointStart, leader.Index, "")
	if e.Cfg.CheckpointCost == 0 {
		e.commitCheckpoint()
	}
}

// commitCheckpoint finalises the in-progress checkpoint, updates P, and
// restarts waiting zones from the fresh checkpoint. The committed
// seconds ride along in the timeline event for run-chart rendering.
func (e *Env) commitCheckpoint() {
	e.Committed = e.ck.snap
	e.LastCheckpointAt = e.ck.endsAt
	e.res.OverheadSeconds += e.Cfg.CheckpointCost
	e.res.Checkpoints++
	if e.Cfg.RecordTimeline {
		e.timeline(TLCheckpointDone, e.ck.zone, strconv.FormatInt(e.Committed, 10))
	}
	e.ck = nil
	e.startWaiting()
	e.Spec.Policy.ScheduleNextCheckpoint(e)
}

// needsProtectiveCheckpoint reports whether a spec switch should first
// commit uncommitted progress.
func (e *Env) needsProtectiveCheckpoint() bool {
	return e.UncommittedProgress() > 0 && e.AnyUp()
}

// applySpec reconfigures the run: zones leaving the spec (or whose bid
// changed — EC2 requires cancelling the request) are user-terminated.
func (e *Env) applySpec(spec RunSpec) {
	inNew := map[int]bool{}
	for _, zi := range spec.Zones {
		inNew[zi] = true
	}
	bidChanged := spec.Bid != e.Spec.Bid
	for _, zi := range e.Spec.Zones {
		if inNew[zi] && !bidChanged {
			continue
		}
		z := &e.Zones[zi]
		switch z.State {
		case Up:
			if e.ck != nil && e.ck.zone == zi {
				// The protective checkpoint was aborted with its zone.
				e.ck = nil
				e.res.AbortedCheckpoints++
			}
			e.releaseUser(z)
		case Pending, Waiting:
			z.State = Down
			e.timeline(TLZoneDown, zi, "spec-switch")
		}
	}
	e.Spec = spec
	e.res.SpecSwitches++
	e.res.Policy = spec.Policy.Name()
	if e.Cfg.RecordTimeline {
		e.timeline(TLSwitchSpec, -1, fmt.Sprintf("bid=%.2f n=%d policy=%s", spec.Bid, len(spec.Zones), spec.Policy.Name()))
	}
	spec.Policy.Reset(e)
}

// minOnDemandDelay returns the smallest wall-clock delay in which the
// job can be finished on the on-demand market right now: either restart
// from the last checkpoint (restore cost t_r, then C − P of work) or
// restart from scratch (C of work, no restore). The value never
// increases over a run — P only grows — which is what makes the
// deadline guard sound.
func (e *Env) minOnDemandDelay() int64 {
	fromScratch := e.Cfg.Work
	if e.Committed <= 0 {
		return fromScratch
	}
	fromCkpt := e.Cfg.RestartCost + (e.Cfg.Work - e.Committed)
	if fromCkpt < fromScratch {
		return fromCkpt
	}
	return fromScratch
}

// guardSlack implements line 11 of Algorithm 1 on committed progress:
// how many seconds remain before the guard must fire. One step of
// margin covers the discrete time grid. Because minOnDemandDelay never
// increases and T_r shrinks by exactly one step per iteration, a
// positive slack at one step guarantees the job can still be finished
// in time at the next, so the guarantee holds under any termination
// pattern.
func (e *Env) guardSlack() int64 {
	return e.RemainingTime() - e.minOnDemandDelay() - e.Step
}

// finishViaOnDemand performs the deadline-guard migration. It picks the
// fastest feasible plan among: taking a final checkpoint of the leading
// up zone and restoring it on-demand; restoring the last committed
// checkpoint on-demand; or restarting the job from scratch on-demand.
// The latter two always fit the deadline when the guard fires on time;
// the first is taken opportunistically when it both fits and finishes
// sooner.
func finishViaOnDemand(env *Env) *Result {
	type plan struct {
		tcUsed, trUsed int64
		base           int64 // progress the on-demand run resumes from
	}
	delay := func(p plan) int64 { return p.tcUsed + p.trUsed + (env.Cfg.Work - p.base) }

	best := plan{} // restart from scratch: delay = Work
	if env.Committed > 0 {
		p := plan{trUsed: env.Cfg.RestartCost, base: env.Committed}
		if delay(p) < delay(best) {
			best = p
		}
	}
	if lead := env.Leader(); lead != nil {
		base := lead.Progress
		if it := env.Cfg.IterationSeconds; it > 0 {
			base = base / it * it // completed iterations only
		}
		if base > env.Committed {
			p := plan{tcUsed: env.Cfg.CheckpointCost, trUsed: env.Cfg.RestartCost, base: base}
			if delay(p) < delay(best) && delay(p) <= env.RemainingTime() {
				best = p
			}
		}
	}
	if best.tcUsed > 0 {
		env.Committed = best.base
		env.res.Checkpoints++
	}
	env.ck = nil // superseded by the migration
	closeAt := env.Now + best.tcUsed
	for zi := range env.Zones {
		z := &env.Zones[zi]
		switch z.State {
		case Up:
			z.Meter.Close(closeAt, market.ByUser, env.rateFn(zi), &env.ledger)
			z.Meter = nil
			z.State = Down
		case Pending, Waiting:
			z.State = Down
		}
	}
	finish := env.Now + delay(best)
	od := market.OpenOnDemandMeter(closeAt)
	od.Close(finish, market.ByUser, nil, &env.ledger)
	env.res.SwitchedOnDemand = true
	env.timeline(TLOnDemand, -1, "")
	return completeAt(env, finish)
}

// finishOnDemand handles a zero-zone spec: pure on-demand from the
// start, with no checkpoint or restart overhead.
func finishOnDemand(env *Env) *Result {
	finish := env.StartTime + env.Cfg.Work
	od := market.OpenOnDemandMeter(env.StartTime)
	od.Close(finish, market.ByUser, nil, &env.ledger)
	env.res.SwitchedOnDemand = true
	env.timeline(TLOnDemand, -1, "pure")
	return completeAt(env, finish)
}

// finishComplete handles a zone reaching the total work on the spot
// market at the given instant.
func finishComplete(env *Env, winner *ZoneState, finish int64) *Result {
	winner.Progress = env.Cfg.Work
	env.Committed = env.Cfg.Work
	for zi := range env.Zones {
		z := &env.Zones[zi]
		switch z.State {
		case Up:
			z.Meter.Close(finish, market.ByUser, env.rateFn(zi), &env.ledger)
			z.Meter = nil
			z.State = Down
		case Pending, Waiting:
			z.State = Down
		}
	}
	return completeAt(env, finish)
}

func completeAt(env *Env, finish int64) *Result {
	env.Committed = env.Cfg.Work // all work done, whichever path finished
	env.res.Completed = true
	env.res.FinishTime = finish
	env.res.DeadlineMet = finish <= env.Deadline()
	env.Now = finish
	env.timeline(TLComplete, -1, "")
	return env.finalize()
}

// finalize computes totals and returns the accumulated result.
func (e *Env) finalize() *Result {
	if t := e.Cfg.ObsTrace; t != nil {
		t.Record(obs.Span{
			Name: "sim.run", Clock: obs.SimClock,
			Start: e.StartTime, End: e.Now,
			Attrs: []obs.Attr{
				{Key: "strategy", Value: e.res.Strategy},
				{Key: "policy", Value: e.res.Policy},
			},
		})
	}
	n := float64(e.nodes())
	e.res.Cost = e.ledger.Total() * n
	e.res.SpotCost = e.ledger.SpotTotal() * n
	e.res.OnDemandCost = e.ledger.OnDemandTotal() * n
	e.res.Committed = e.Committed
	e.res.MaxProgress = e.Committed
	for i := range e.Zones {
		if p := e.Zones[i].Progress; p > e.res.MaxProgress {
			e.res.MaxProgress = p
		}
	}
	e.res.Ledger = e.ledger
	return &e.res
}
