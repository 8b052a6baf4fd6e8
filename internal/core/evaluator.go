package core

import (
	"strconv"

	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Evaluator is the reusable evaluation core behind the Adaptive scheme:
// it replays candidate (bid, zone set, policy) permutations over a
// history window in one columnar batched pass (batch.go), with the
// per-permutation sim.Machine oracle behind DisableBatch as its
// reference. Results are returned in input order, so any evaluation is
// bit-for-bit identical to sequential oracle replays. The zero value is
// ready to use; an Evaluator is safe for concurrent use by multiple
// goroutines.
type Evaluator struct {
	// Workers bounds the oracle fan-out under DisableBatch; 0 selects
	// GOMAXPROCS. The batched engine replays serially.
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
}

// NewEvaluator returns the zero evaluator: the batched engine, with no
// tracer and no decision sink.
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
// zero estimate, and so does a spec without zones: the machine would
// run its effectively unbounded estimation work on demand, billing
// every hour of it.
func (ev *Evaluator) Measure(hist *trace.Set, spec sim.RunSpec, tc, tr int64) estimate {
	if hist == nil || len(spec.Zones) == 0 {
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

// MeasureAll replays every permutation over the history window and
// returns their estimates in input order. Each spec must carry its own
// policy instance (policies hold run state). The columnar batched
// engine prices the sibling permutations in one pass, one replay per
// replay class (batch.go), bit-identical to Measure; under DisableBatch
// every spec takes its own oracle replay across the worker pool
// instead. The batched path leaves the spec's policy instances
// untouched (the oracle mutates their run state during the replay;
// nothing reads it after). Its permutations replay serially — the memo
// layers make the shared model work cheap, so a worker fan-out would
// only buy lock traffic and allocation churn, and serial replay keeps
// the results trivially worker-count-independent. Windows the oracle
// rejects wholesale (nil, empty, malformed) and specs addPerm refuses
// keep the zero estimate, which is the oracle's answer for them. The
// eval.sweep span counts the specs and the replays that priced them.
func (ev *Evaluator) MeasureAll(hist *trace.Set, specs []sim.RunSpec, tc, tr int64) []estimate {
	sweep := ev.Trace.Start("eval.sweep")
	out := make([]estimate, len(specs))
	replays := len(specs)
	switch {
	case ev.DisableBatch:
		pool.Run(ev.Workers, len(specs), func(i int) {
			out[i] = ev.Measure(hist, specs[i], tc, tr)
		})
	case hist == nil || hist.Duration() <= 0 || hist.Validate() != nil:
		replays = 0
	default:
		s := takeScratch()
		s.arm(hist, tc, tr)
		replays = s.b.sweep(specs, out)
		s.release()
	}
	ev.endSweep(sweep, len(specs), replays)
	return out
}

// endSweep ends an eval.sweep span, counting the specs and the replays
// that priced them.
func (ev *Evaluator) endSweep(sweep obs.ActiveSpan, specs, replays int) {
	if sweep.Recording() {
		sweep.SetAttr("specs", strconv.Itoa(specs))
		sweep.SetAttr("replays", strconv.Itoa(replays))
		sweep.SetAttr("batched", strconv.FormatBool(!ev.DisableBatch))
	}
	sweep.End()
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
