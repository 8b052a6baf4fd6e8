package sim

import (
	"math/rand/v2"

	"repro/internal/market"
	"repro/internal/markov"
	"repro/internal/trace"
)

// ZoneState is the run-time state of one zone's instance.
type ZoneState struct {
	// Index is the zone's position in the trace.
	Index int
	// Name is the zone label.
	Name string
	// State is the instance lifecycle state.
	State InstanceState
	// Meter bills the running instance (non-nil while Up).
	Meter *market.Meter
	// Progress is the replica's total application progress in seconds
	// (committed plus speculative).
	Progress int64
	// BusyUntil freezes progress until the given absolute time while
	// the replica checkpoints or restores.
	BusyUntil int64
	// ReadyAt is when a Pending request becomes usable.
	ReadyAt int64
	// restore marks a Pending start that must load a checkpoint.
	restore bool
	// UpSince is when the instance last became Up.
	UpSince int64
}

// checkpoint tracks an in-progress checkpoint.
type checkpoint struct {
	zone   int   // zone index performing the checkpoint
	endsAt int64 // absolute completion time
	snap   int64 // progress value being committed
}

// Env is the engine state policies and strategies observe.
type Env struct {
	// Cfg is the immutable run configuration.
	Cfg Config
	// Spec is the active run specification.
	Spec RunSpec
	// Now is the current absolute simulation time.
	Now int64
	// StartTime is the experiment start (Trace.Start()).
	StartTime int64
	// Step is the simulation step in seconds.
	Step int64
	// Zones holds the state of every zone in the trace (active or not).
	Zones []ZoneState
	// Committed is P: checkpointed progress in seconds.
	Committed int64
	// LastCheckpointAt is when the latest checkpoint completed (or the
	// start time when none has).
	LastCheckpointAt int64
	// LastRestartAt is when instances last (re)started.
	LastRestartAt int64

	ledger  market.Ledger
	rng     *rand.Rand
	pcg     *rand.PCG
	delay   market.DelayModel
	ck      *checkpoint
	ckBuf   checkpoint
	res     Result
	rateFns []func(int64) float64
	minSeen []minScan
	states  [][2]gridStates
	fits    []zoneFit
	solver  markov.UptimeSolver // ChainUptime's workspace, shared by the zones
}

// zoneFit is one zone's sliding chain fit (ChainUptime): the window fitter
// over the zone's States view from base. live marks counts over this
// run's view; the fitter's buffers outlive the run.
type zoneFit struct {
	base int64
	live bool
	fit  markov.WindowFitter
}

// gridStates is a zone's chain-state column for States when the run's
// trace column cannot serve: the states of the prices Price reads on
// the grid from base to the trace's end, bucketed once per run and grid
// and extended as the trace grows. It holds 4 bytes per sample and no
// prices, half of what a trace growing with the run adds. A zone keeps
// the two grids last read, most recent first: a run's fits read at
// most two, the HistoryStart clamp's and Now's, and may alternate.
type gridStates struct {
	base int64
	b    trace.Buckets
}

// minScan is one zone's running S_min for MinObservedPrice: the minimum
// price over the grid points lo, lo+Step, … before next, where lo is the
// first point of the zone's available history. ok is false until the
// zone's first query of the run.
type minScan struct {
	min  float64
	next int64
	ok   bool
}

// reset re-initialises the environment for a new run in place, reusing
// the zone slice, ledger backing array, timeline buffer, cached billing
// closures and RNG allocated by previous runs. The caller must have
// validated cfg.
func (e *Env) reset(cfg Config) {
	e.Cfg = cfg
	e.Spec = RunSpec{}
	e.Step = cfg.Trace.Step()
	e.StartTime = cfg.Trace.Start()
	e.Now = e.StartTime
	e.Committed = 0
	e.LastCheckpointAt = e.StartTime
	e.LastRestartAt = e.StartTime
	if e.pcg == nil {
		e.pcg = rand.NewPCG(cfg.Seed, rngStream)
		e.rng = rand.New(e.pcg)
	} else {
		e.pcg.Seed(cfg.Seed, rngStream)
	}
	e.delay = cfg.Delay
	if e.delay == nil {
		e.delay = market.DefaultDelay()
	}
	e.ck = nil
	e.ledger.Reset()
	tl := e.res.Timeline[:0]
	e.res = Result{}
	e.res.Timeline = tl

	nz := cfg.Trace.NumZones()
	if cap(e.Zones) < nz {
		e.Zones = make([]ZoneState, nz)
		e.rateFns = make([]func(int64) float64, nz)
		e.minSeen = make([]minScan, nz)
		e.states = make([][2]gridStates, nz)
		e.fits = make([]zoneFit, nz)
	}
	e.Zones = e.Zones[:nz]
	e.rateFns = e.rateFns[:nz]
	e.minSeen = e.minSeen[:nz]
	clear(e.minSeen)
	e.states = e.states[:nz]
	clear(e.states)
	e.fits = e.fits[:nz]
	for i := range e.fits {
		e.fits[i].live = false
	}
	for i := range e.Zones {
		e.Zones[i] = ZoneState{Index: i, Name: cfg.Trace.Series[i].Zone, State: Down}
		if e.rateFns[i] == nil {
			zi := i
			e.rateFns[i] = func(t int64) float64 { return e.Price(zi, t) }
		}
	}
}

// rngStream is the fixed second PCG seed word of every run's private
// random stream; reseeding a pooled engine with the same (Seed,
// rngStream) pair reproduces the stream of a freshly built one
// bit-for-bit.
const rngStream = 0x5eed_0f_de1a75

// Deadline returns the absolute deadline time.
func (e *Env) Deadline() int64 { return e.StartTime + e.Cfg.Deadline }

// RemainingTime returns T_r: seconds until the deadline.
func (e *Env) RemainingTime() int64 { return e.Deadline() - e.Now }

// RemainingWork returns C_r: seconds of computation not yet committed.
func (e *Env) RemainingWork() int64 { return e.Cfg.Work - e.Committed }

// CheckpointCost returns t_c in seconds.
func (e *Env) CheckpointCost() int64 { return e.Cfg.CheckpointCost }

// RestartCost returns t_r in seconds.
func (e *Env) RestartCost() int64 { return e.Cfg.RestartCost }

// Price returns the spot price of the zone at absolute time t, reading
// the bootstrap history for times before the run window.
func (e *Env) Price(zone int, t int64) float64 {
	if t < e.StartTime && e.Cfg.History != nil && e.Cfg.History.NumZones() > zone {
		return e.Cfg.History.Series[zone].PriceAt(t)
	}
	return e.Cfg.Trace.Series[zone].PriceAt(t)
}

// PriceNow returns the zone's current spot price.
func (e *Env) PriceNow(zone int) float64 { return e.Price(zone, e.Now) }

// HistoryStart returns the first time of the available price history:
// the bootstrap history's start when one is configured, else the run's
// start.
func (e *Env) HistoryStart() int64 {
	if e.Cfg.History != nil && e.Cfg.History.Duration() > 0 {
		return e.Cfg.History.Start()
	}
	return e.StartTime
}

// States returns the zone's chain states (trace.Series.States) on the
// step grid through from: ids[i] is the state of the price Price reads
// at base + i·Step, for base the grid's first time at or after
// HistoryStart. The grid reaches the trace's end, and a sample past it
// is the last, as Price clamps. When the bootstrap history and the
// trace are adjacent slices of one root, as every experiment window
// cuts them, or there is no history, the grid on their step is a view
// of the trace's column; otherwise the env buckets the zone's prices
// through Price, once per run and grid (gridStates). The views are
// read-only and valid for the run, and a view taken again on one grid
// numbers its states alike.
func (e *Env) States(zone int, from int64) (ids []int32, vals []float64, base int64) {
	hs := e.HistoryStart()
	base = hs + (from-hs)%e.Step
	tr := e.Cfg.Trace.Series[zone]
	if h := e.Cfg.History; base == hs && (h == nil || h.Duration() <= 0) {
		ids, vals = tr.States()
		return ids, vals, base
	} else if base == hs && zone < h.NumZones() {
		if ids, vals, ok := trace.JoinStates(h.Series[zone], tr); ok {
			return ids, vals, base
		}
	}
	gs := &e.states[zone]
	if gs[0].b.Len() == 0 || gs[0].base != base {
		if gs[1].b.Len() > 0 && gs[1].base == base {
			gs[0], gs[1] = gs[1], gs[0]
		} else {
			// Fresh storage: a view of a dropped grid stays intact.
			gs[0], gs[1] = gridStates{base: base}, gs[0]
		}
	}
	zs := &gs[0]
	for t := base + int64(zs.b.Len())*e.Step; t < tr.End() || zs.b.Len() == 0; t += e.Step {
		zs.b.Add(e.Price(zone, t))
	}
	ids, vals = zs.b.States()
	return ids, vals, base
}

// ChainUptime returns the expected uptime E[T_u] at the bid from the
// price of the zone's Markov chain (Appendix B) fitted on its trailing
// span of price history at Now — the samples Price(zone, t) at t = from,
// from+Step, …, Now with from = max(Now−span+Step, HistoryStart()),
// read as states from the env's view (States) — and false for an empty
// history. It is bit-identical to markov.Fit(markov.Quantize(window,
// markov.Quantum), Step).ExpectedUptimeExact(bid, price) over those
// samples, solved from the zone's window fitter's counts in the env's
// one solver workspace. Each zone's fitter
// slides from one window to the next, whichever policy instance asks,
// and restarts with each run and when the window start moves onto
// another grid (the HistoryStart clamp can do that); its count tables
// and the solver serve the machine's later runs, so a fresh policy per
// run allocates none.
func (e *Env) ChainUptime(zone int, span int64, bid, price float64) (float64, bool) {
	from := max(e.Now-span+e.Step, e.HistoryStart())
	if from > e.Now {
		return 0, false
	}
	ids, vals, base := e.States(zone, from)
	z := &e.fits[zone]
	if z.live && z.base == base {
		z.fit.Slide(ids, vals, 0)
	} else {
		z.fit.Init(ids, vals, e.Step)
		z.base, z.live = base, true
	}
	lo := int((from - base) / e.Step)
	if _, err := z.fit.Count(lo, lo+int((e.Now-from)/e.Step)+1); err != nil {
		return 0, false
	}
	return z.fit.Uptime(&e.solver, bid, price), true
}

// release drops what the env holds of its run — configuration, spec,
// state columns and the fitters' views of them — keeping the buffers a
// pooled machine's next run reuses.
func (e *Env) release() {
	e.Spec, e.Cfg = RunSpec{}, Config{}
	clear(e.states)
	for i := range e.fits {
		e.fits[i].fit.Init(nil, nil, 0)
		e.fits[i].live = false
	}
}

// AnyUp reports whether any active zone is Up.
func (e *Env) AnyUp() bool {
	for _, zi := range e.Spec.Zones {
		if e.Zones[zi].State == Up {
			return true
		}
	}
	return false
}

// Leader returns the Up zone with the most progress, or nil.
func (e *Env) Leader() *ZoneState {
	var best *ZoneState
	for _, zi := range e.Spec.Zones {
		z := &e.Zones[zi]
		if z.State == Up && (best == nil || z.Progress > best.Progress) {
			best = z
		}
	}
	return best
}

// LeaderProgress returns the leader's progress, or Committed when no
// zone is up.
func (e *Env) LeaderProgress() int64 {
	if l := e.Leader(); l != nil {
		return l.Progress
	}
	return e.Committed
}

// UncommittedProgress returns the leader's progress beyond the latest
// checkpoint.
func (e *Env) UncommittedProgress() int64 { return e.LeaderProgress() - e.Committed }

// RisingEdge reports whether the zone's spot price moved upward across
// the latest step (the Edge policy trigger).
func (e *Env) RisingEdge(zone int) bool {
	return e.Price(zone, e.Now) > e.Price(zone, e.Now-e.Step)
}

// MinObservedPrice returns the minimum price the zone quoted over its
// available history up to now (S_min in the Threshold policy).
//
// The minimum is kept per zone and extended over only the grid points
// added since the previous query, in the same ascending order a full
// rescan would visit them, so every result is the float a rescan
// returns at amortized O(1) per step. That is exact because prices
// already read never change: Now only advances within a run, and a
// live trace only grows by append beyond it.
func (e *Env) MinObservedPrice(zone int) float64 {
	s := &e.minSeen[zone]
	if !s.ok {
		lo := e.HistoryStart()
		*s = minScan{min: e.Price(zone, lo), next: lo, ok: true}
	}
	for ; s.next <= e.Now; s.next += e.Step {
		if p := e.Price(zone, s.next); p < s.min {
			s.min = p
		}
	}
	return s.min
}

// TimelineEvents returns the events recorded so far (only populated
// when Cfg.RecordTimeline is set). The live scheduler drains it
// incrementally to derive externally visible actions.
func (e *Env) TimelineEvents() []TimelineEvent { return e.res.Timeline }

// timeline records an event when the run records its timeline. A
// caller whose detail costs a formatting call checks RecordTimeline
// first, so a run that records nothing formats nothing.
func (e *Env) timeline(kind TimelineKind, zone int, detail string) {
	if !e.Cfg.RecordTimeline {
		return
	}
	e.res.Timeline = append(e.res.Timeline, TimelineEvent{Time: e.Now, Kind: kind, Zone: zone, Detail: detail})
}

// nodes returns the cost multiplier.
func (e *Env) nodes() int {
	if e.Cfg.Nodes <= 0 {
		return 1
	}
	return e.Cfg.Nodes
}
