package core

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// ScriptChoice pins one recorded decision for replay: the absolute
// simulation time the decision fired (replay matches decisions to
// Reconsider calls by time, so gated non-decisions stay gated), whether
// the original decision switched the running spec, and the chosen
// permutation's values. It is the minimal, policy-instance-free form of
// a DecisionPoint's outcome.
type ScriptChoice struct {
	// Time is the absolute simulation time of the decision.
	Time int64
	// Switched reports whether the decision changed the running spec.
	Switched bool
	// Bid, Zones and Policy are the chosen permutation's values; Policy
	// is the Kind of the candidate factory that built it, never an
	// instance's name.
	Bid    float64
	Zones  []int
	Policy string
}

// Forced is the counterfactual replay strategy behind internal/decision:
// it replays a recorded decision script exactly — no permutation sweeps,
// no evaluator — up to ForceAt, substitutes the forced alternative
// there, and hands the run over to the Inner Adaptive strategy to make
// every later decision live. Three modes fall out of the fields:
//
//   - Pinned oracle (Script set, ForceAt < 0, Inner optional): every
//     decision replays from the script; a from-scratch run of the same
//     config is bit-identical to the run that produced the script.
//   - Scripted counterfactual (Script set, ForceAt ≥ 0, Inner set): the
//     cheap path the replayer uses — prefix pinned, one decision forced,
//     live Adaptive (batched evaluator) afterwards.
//   - Live counterfactual (Script nil, ForceAt ≥ 0, Inner set): the
//     naive baseline — the Inner strategy re-runs every prefix sweep
//     from scratch and the force is applied at decision ForceAt.
//
// A forced alternative switches the running spec iff its values differ
// from the incumbent's (bid, zone set, factory Kind); forcing the
// originally-chosen permutation therefore reproduces the original run
// decision-for-decision, which is what the zero-regret property tests
// pin down.
type Forced struct {
	// Inner makes every decision after the scripted/forced prefix.
	// Required unless ForceAt < 0 (pure pinned replay).
	Inner *Adaptive
	// Candidates maps policy Kinds to fresh instances when the script
	// installs a policy; nil falls back to Inner's candidates, then to
	// DefaultAdaptiveCandidates.
	Candidates []PolicyFactory
	// Script holds the recorded decisions to pin, in sequence order.
	Script []ScriptChoice
	// ForceAt is the decision sequence number to substitute; negative
	// pins the whole script with no substitution.
	ForceAt int
	// Force is the alternative substituted at ForceAt (Bid, Zones,
	// Policy; Time and Switched are ignored).
	Force ScriptChoice
	// Sink, when non-nil, receives the pinned and forced decisions
	// (Ranked empty — pinned decisions score nothing). Decisions made
	// live by Inner go to Inner.Sink.
	Sink DecisionSink

	seq     int // next decision sequence number
	idx     int // next script entry
	live    bool
	cur     sim.RunSpec                 // spec the engine is running (last installed)
	curNew  func() sim.CheckpointPolicy // cur's policy constructor; nil when Inner chose cur
	curKind string                      // Kind of the factory cur's policy came from
}

// Name implements sim.Strategy.
func (f *Forced) Name() string { return "forced" }

// Begin implements sim.Strategy: decision 0 comes from the script, the
// force, or the Inner strategy, depending on mode.
func (f *Forced) Begin(env *sim.Env) sim.RunSpec {
	f.seq, f.idx, f.live = 0, 0, false
	f.cur, f.curNew, f.curKind = sim.RunSpec{}, nil, ""
	if len(f.Script) == 0 {
		f.Script = nil
	}
	if f.Script != nil {
		alt := f.Script[0]
		if f.ForceAt == 0 {
			alt = f.Force
		}
		spec := f.install(alt)
		f.seq, f.idx = 1, 1
		f.record(env, TriggerBegin, true, alt, 0)
		if f.ForceAt == 0 {
			f.goLive()
		}
		return spec
	}
	// Live mode: no script to pin.
	if f.ForceAt == 0 {
		spec := f.install(f.Force)
		f.seq = 1
		f.record(env, TriggerBegin, true, f.Force, 0)
		f.goLive()
		return spec
	}
	spec := f.inner().Begin(env)
	f.cur, f.curKind = spec, f.Inner.chosenKind
	f.seq = 1
	return spec
}

// Reconsider implements sim.Strategy.
func (f *Forced) Reconsider(env *sim.Env, events []sim.Event) (sim.RunSpec, bool) {
	if f.live {
		return f.inner().Reconsider(env, events)
	}
	if f.Script != nil {
		return f.reconsiderScripted(env, events)
	}
	return f.reconsiderLivePrefix(env, events)
}

// reconsiderScripted replays the pinned prefix: Reconsider calls whose
// time does not match the next script entry were gated non-decisions in
// the original run and stay gated; matching calls consume the entry.
func (f *Forced) reconsiderScripted(env *sim.Env, events []sim.Event) (sim.RunSpec, bool) {
	if f.idx >= len(f.Script) {
		if f.Inner == nil {
			// Pure pinned replay past its script: the original run made
			// no further decisions, so neither does the replay.
			return sim.RunSpec{}, false
		}
		f.goLive()
		return f.Inner.Reconsider(env, events)
	}
	if f.Script[f.idx].Time != env.Now {
		return sim.RunSpec{}, false
	}
	choice := f.Script[f.idx]
	f.idx++
	seq := f.seq
	f.seq++
	trigger := triggerFor(events)
	if seq == f.ForceAt {
		return f.applyForce(env, trigger, &choice, seq)
	}
	if !choice.Switched {
		f.record(env, trigger, false, choice, seq)
		return sim.RunSpec{}, false
	}
	spec := f.install(choice)
	f.record(env, trigger, true, choice, seq)
	return spec, true
}

// reconsiderLivePrefix counts the Inner strategy's own decisions until
// ForceAt, replicating its hour-boundary gating so the sequence numbers
// line up with a recorded run's.
func (f *Forced) reconsiderLivePrefix(env *sim.Env, events []sim.Event) (sim.RunSpec, bool) {
	in := f.inner()
	if in.ReDecideOnHourOnly && !hasHourBoundary(events) {
		return in.Reconsider(env, events) // gated: not a decision point
	}
	seq := f.seq
	f.seq++
	if seq == f.ForceAt {
		return f.applyForce(env, triggerFor(events), nil, seq)
	}
	spec, ok := in.Reconsider(env, events)
	if ok {
		f.cur, f.curNew, f.curKind = spec, nil, in.chosenKind
	}
	return spec, ok
}

// applyForce substitutes the forced alternative at its decision point
// and hands the run to Inner. The force switches the running spec iff
// its values differ from the incumbent's (bid, zone set, factory Kind);
// when the force equals the originally-recorded choice the original
// Switched flag is replayed verbatim, so forcing the chosen permutation
// is exactly the original run.
func (f *Forced) applyForce(env *sim.Env, trigger string, choice *ScriptChoice, seq int) (sim.RunSpec, bool) {
	switched := !altEqual(f.Force, ScriptChoice{Bid: f.cur.Bid, Zones: f.cur.Zones, Policy: f.curKind})
	if choice != nil && altEqual(f.Force, *choice) {
		switched = choice.Switched
	}
	if !switched {
		f.record(env, trigger, false, f.Force, seq)
		f.goLive()
		return sim.RunSpec{}, false
	}
	spec := f.install(f.Force)
	f.record(env, trigger, true, f.Force, seq)
	f.goLive()
	return spec, true
}

// goLive hands every later decision to the Inner Adaptive strategy,
// seeding it with the running spec and the next sequence number so its
// churn damping and decision records continue seamlessly. A spec Inner
// chose itself is already its incumbent, with its own constructor.
func (f *Forced) goLive() {
	if f.Inner == nil {
		panic("core: Forced needs Inner to decide past the script")
	}
	f.live = true
	if f.curNew != nil {
		f.Inner.chosen, f.Inner.chosenNew, f.Inner.chosenKind = f.cur, f.curNew, f.curKind
	}
	f.Inner.decSeq = f.seq
}

// inner returns the continuation strategy, panicking with a clear
// message when a mode that needs one lacks it.
func (f *Forced) inner() *Adaptive {
	if f.Inner == nil {
		panic("core: Forced needs Inner in live mode")
	}
	return f.Inner
}

// record hands a pinned or forced decision to the sink.
func (f *Forced) record(env *sim.Env, trigger string, switched bool, alt ScriptChoice, seq int) {
	if f.Sink == nil {
		return
	}
	f.Sink.RecordDecision(DecisionPoint{
		Seq:      seq,
		Time:     env.Now,
		Trigger:  trigger,
		Switched: switched,
		Chosen:   DecisionAlt{Bid: alt.Bid, Zones: alt.Zones, Policy: alt.Policy},
	})
}

// install makes a script choice the running spec, with a fresh policy
// instance from the factory of the named Kind, and returns it.
func (f *Forced) install(alt ScriptChoice) sim.RunSpec {
	kind := alt.Policy
	f.curNew = func() sim.CheckpointPolicy { return f.policyFor(kind) }
	f.curKind = kind
	f.cur = sim.RunSpec{
		Bid:    alt.Bid,
		Zones:  append([]int(nil), alt.Zones...),
		Policy: f.curNew(),
	}
	return f.cur
}

// policyFor builds a fresh policy instance from the candidate factory
// of the given Kind; a Kind no candidate names gets the empty grid's
// fallback, Periodic (CheckScript refuses any other).
func (f *Forced) policyFor(kind string) sim.CheckpointPolicy {
	cands := f.Candidates
	if cands == nil && f.Inner != nil {
		cands = f.Inner.Candidates
	}
	_, _, cands = resolveGrid(nil, 0, 0, cands)
	for _, fac := range cands {
		if fac.Kind == kind {
			return fac.New()
		}
	}
	return NewPeriodic()
}

// CheckScript reports why Forced cannot replay choices over cands (nil
// selects DefaultAdaptiveCandidates): a candidate list Rank would
// refuse — two factories of one Kind among them, which no decision
// record can tell apart — or a choice naming a Kind that neither a
// candidate nor the empty grid's Periodic fallback has.
func CheckScript(cands []PolicyFactory, choices ...ScriptChoice) error {
	if err := checkCandidates(cands); err != nil {
		return err
	}
	_, _, cands = resolveGrid(nil, 0, 0, cands)
	for _, c := range choices {
		if c.Policy == fallbackKind || slices.ContainsFunc(cands, func(fac PolicyFactory) bool { return fac.Kind == c.Policy }) {
			continue
		}
		return fmt.Errorf("core: choice at time %d names policy kind %q, which no candidate has", c.Time, c.Policy)
	}
	return nil
}

// altEqual reports whether two script choices request the same
// permutation values.
func altEqual(a, b ScriptChoice) bool {
	if a.Bid != b.Bid || a.Policy != b.Policy || len(a.Zones) != len(b.Zones) {
		return false
	}
	for i := range a.Zones {
		if a.Zones[i] != b.Zones[i] {
			return false
		}
	}
	return true
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
