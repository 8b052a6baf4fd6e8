package core

import (
	"strconv"
	"sync"

	"repro/internal/market"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Evaluator is the reusable evaluation core behind the Adaptive scheme:
// it replays candidate (bid, zone set, policy) permutations over a
// history window on pooled simulation machines, fanning the replays out
// across a bounded worker pool, and computes the closed-form chain
// analyses of the Analytic variant the same way. Results are returned
// in input order, so a parallel evaluation is bit-for-bit identical to
// a sequential one. The zero value is ready to use; an Evaluator is
// safe for concurrent use by multiple goroutines.
type Evaluator struct {
	// Workers bounds the evaluation fan-out; 0 selects GOMAXPROCS.
	Workers int
	// Trace, when non-nil, receives wall-clock spans for sweeps and
	// rankings plus a simulated-time span per estimation replay. Nil
	// disables tracing at zero cost.
	Trace *obs.Tracer
	// DisableBatch routes every estimation replay through the
	// per-permutation sim.Machine oracle instead of the columnar batched
	// engine (batch.go). It is the reference hook for the differential
	// tests, fuzzers and paired oracle-vs-batched benchmarks that hold
	// the two engines bit-identical; production entry points leave it
	// false.
	DisableBatch bool
	// Sink, when non-nil, receives one DecisionPoint per Rank call
	// (trigger "rank", Seq -1 so the sink assigns the sequence) carrying
	// the best plan and the full ranked grid. This is how quoted exposes
	// its planning decisions on /debug/decisions. Nil costs nothing.
	Sink DecisionSink

	// batchPool recycles batched-sweep scratch (columnar views,
	// availability indexes, flat permutation state) across decision
	// points. Because of it an Evaluator must not be copied after use.
	batchPool sync.Pool
}

// NewEvaluator returns an evaluator with default parallelism.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// estimationSeed fixes the queuing-delay stream of every estimation
// replay, as the original measure helper did.
const estimationSeed = 7

// estimationDelay is the fixed queuing delay of estimation replays, in
// seconds. The batched engine hardcodes the same constant, which keeps
// its replays rng-free like the oracle's.
const estimationDelay int64 = 300

// estimationCfg builds the guard-disabled replay configuration for a
// history window.
func estimationCfg(hist *trace.Set, tc, tr int64) sim.Config {
	const huge = int64(1) << 40
	return sim.Config{
		Trace:                hist,
		Work:                 huge,
		Deadline:             huge,
		CheckpointCost:       tc,
		RestartCost:          tr,
		Delay:                market.FixedDelay(estimationDelay),
		Seed:                 estimationSeed,
		DisableDeadlineGuard: true,
	}
}

// Measure replays one permutation over the history window on a pooled
// machine (deadline guard disabled, effectively unbounded work) and
// extracts its progress and cost rates. A nil or empty history yields a
// zero estimate.
func (ev *Evaluator) Measure(hist *trace.Set, spec sim.RunSpec, tc, tr int64) estimate {
	if hist == nil {
		return estimate{}
	}
	span := float64(hist.Duration())
	if span <= 0 {
		return estimate{}
	}
	// The replay machines deliberately do NOT inherit ev.Trace: a sweep
	// replays hundreds of throwaway permutations, and per-replay sim.run
	// spans would flood the ring and blow the overhead budget. The sweep
	// is summarized by the eval.sweep span instead.
	cfg := estimationCfg(hist, tc, tr)
	var est estimate
	err := sim.RunPooled(cfg, NewStatic("estimate", spec), func(res *sim.Result) {
		est = estimate{
			progressRate: float64(res.MaxProgress) / span,
			costRate:     res.Cost / span,
		}
	})
	if err != nil {
		return estimate{}
	}
	return est
}

// MeasureAll replays every permutation over the history window across
// the worker pool and returns their estimates in input order. Each spec
// must carry its own policy instance (policies hold run state). The
// sibling permutations are priced by the columnar batched engine, with
// unsupported specs (and every spec, under DisableBatch) taking per-spec
// oracle replays; either way the results are bit-identical to Measure. The batched path leaves the
// spec's policy instances untouched (the oracle mutates their run state
// during the replay; nothing reads it after).
func (ev *Evaluator) MeasureAll(hist *trace.Set, specs []sim.RunSpec, tc, tr int64) []estimate {
	batched := ev.batchUsable(hist)
	sweep := ev.Trace.Start("eval.sweep")
	if sweep.Recording() {
		sweep.SetAttr("specs", strconv.Itoa(len(specs)))
		sweep.SetAttr("batched", strconv.FormatBool(batched))
	}
	out := make([]estimate, len(specs))
	if batched {
		ev.measureBatch(hist, specs, tc, tr, out)
	} else {
		pool.Run(ev.Workers, len(specs), func(i int) {
			out[i] = ev.Measure(hist, specs[i], tc, tr)
		})
	}
	sweep.End()
	return out
}

// batchUsable reports whether the batched engine may price replays over
// the window; histories the oracle rejects wholesale (nil, empty,
// malformed) keep the oracle path so the error handling stays
// bit-identical.
func (ev *Evaluator) batchUsable(hist *trace.Set) bool {
	return !ev.DisableBatch && hist != nil && hist.Duration() > 0 && hist.Validate() == nil
}

// measureOne prices a single permutation through the batched engine
// when possible, falling back to the oracle replay otherwise. It exists
// for the Adaptive scheme's churn-damping re-evaluation, which prices
// one incumbent spec between sweeps.
func (ev *Evaluator) measureOne(hist *trace.Set, spec sim.RunSpec, tc, tr int64) estimate {
	if !ev.batchUsable(hist) {
		return ev.Measure(hist, spec, tc, tr)
	}
	b := ev.getBatch(hist, tc, tr)
	if !b.addPerm(0, spec) {
		ev.batchPool.Put(b)
		return ev.Measure(hist, spec, tc, tr)
	}
	p := &b.perms[0]
	b.runPerm(p)
	span := float64(hist.Duration())
	est := estimate{
		progressRate: float64(p.maxProgress) / span,
		costRate:     p.cost / span,
	}
	ev.batchPool.Put(b)
	return est
}

// getBatch fetches pooled batch scratch armed for the window.
func (ev *Evaluator) getBatch(hist *trace.Set, tc, tr int64) *batchState {
	b, _ := ev.batchPool.Get().(*batchState)
	if b == nil {
		b = &batchState{}
	}
	b.reset(hist, tc, tr)
	return b
}

// measureBatch prices the specs through the batched engine, writing
// estimates into out in input order. The supported permutations replay
// serially — the memo layers make the shared model work cheap, so a
// worker fan-out would only buy lock traffic and allocation churn, and
// serial replay keeps the results trivially worker-count-independent.
// Specs the engine does not support take per-spec oracle replays across
// the worker pool.
func (ev *Evaluator) measureBatch(hist *trace.Set, specs []sim.RunSpec, tc, tr int64, out []estimate) {
	b := ev.getBatch(hist, tc, tr)
	for i := range specs {
		if !b.addPerm(i, specs[i]) {
			b.fallback = append(b.fallback, i)
		}
	}
	span := float64(hist.Duration())
	for j := range b.perms {
		p := &b.perms[j]
		b.runPerm(p)
		out[p.out] = estimate{
			progressRate: float64(p.maxProgress) / span,
			costRate:     p.cost / span,
		}
	}
	if len(b.fallback) > 0 {
		pool.Run(ev.Workers, len(b.fallback), func(j int) {
			i := b.fallback[j]
			out[i] = ev.Measure(hist, specs[i], tc, tr)
		})
	}
	ev.batchPool.Put(b)
}

// zoneAnalysis holds the fitted chain and per-bid closed-form analyses
// of one zone at one decision point.
type zoneAnalysis struct {
	ok       bool
	analyses []opt.Analysis // indexed like the bid grid
}

// AnalyzeZones fits one chain per zone on the trailing history visible
// at env.Now and computes the closed-form opt.Analysis for every (zone,
// bid) pair across the worker pool — each pair exactly once, where the
// sequential Analytic path recomputed shared zones for every redundancy
// degree. The result is indexed [zone][bid]; zones whose history cannot
// fit a chain are marked not-ok.
func (ev *Evaluator) AnalyzeZones(env *sim.Env, bids []float64, span int64, quantum float64, ov opt.Overheads) []zoneAnalysis {
	asp := ev.Trace.Start("eval.analyze-zones")
	defer asp.End()
	nz := len(env.Zones)
	out := make([]zoneAnalysis, nz)
	chains := make([]*markov.Model, nz)
	pool.Run(ev.Workers, nz, func(zi int) {
		hist := markov.Quantize(env.PriceHistory(zi, span), quantum)
		if m, err := markov.Fit(hist, env.Step); err == nil {
			chains[zi] = m
		}
	})
	// Flatten (zone, bid) pairs so the heavy stationary-distribution
	// solves run in parallel; slot i maps back deterministically.
	nb := len(bids)
	analyses := make([]opt.Analysis, nz*nb)
	pool.Run(ev.Workers, nz*nb, func(i int) {
		zi, bi := i/nb, i%nb
		if chains[zi] == nil {
			return
		}
		analyses[i] = opt.Analyze(chains[zi], bids[bi], ov)
	})
	for zi := 0; zi < nz; zi++ {
		out[zi] = zoneAnalysis{ok: chains[zi] != nil, analyses: analyses[zi*nb : (zi+1)*nb]}
	}
	return out
}

// packZones encodes up to eight zone indices (< 255 each) into one key
// word; it reports false for zone sets it cannot pack.
func packZones(zones []int) (uint64, bool) {
	if len(zones) > 8 {
		return 0, false
	}
	var key uint64
	for i, zi := range zones {
		if zi < 0 || zi > 0xfe {
			return 0, false
		}
		key |= uint64(zi+1) << (8 * i)
	}
	return key, true
}
