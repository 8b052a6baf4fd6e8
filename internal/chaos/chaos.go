// Package chaos is the repository's fault-injection soak harness: it
// replays the live scheduling pipeline (trace feed → fault injector →
// retry decorator → scheduler) under randomized-but-seeded fault
// scenarios and checks, for every run, the invariants the paper
// promises and the implementation must keep under failure:
//
//   - the run completes, and either meets the deadline outright or has
//     provably engaged the on-demand fallback (the guard or the feed
//     watchdog fired, visible in the result and the action stream);
//   - the billing ledger is internally consistent (spot + on-demand
//     charges sum to the total, entry totals match);
//   - no goroutines leak across runs;
//   - identical seeds reproduce identical results, byte for byte —
//     fault injection must not smuggle nondeterminism into the engine.
//
// cmd/chaossim is the CLI; scripts/check.sh runs a short soak in CI.
package chaos

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/leak"
	"repro/internal/livesched"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Config parameterises a soak.
type Config struct {
	// Preset is the synthetic trace family: low, high, low-spike;
	// "" selects high.
	Preset string
	// Seed is the base seed; run i derives everything (trace slice is
	// shared per preset, scenario and engine stream are per-run) from
	// Seed+i.
	Seed uint64
	// Runs is the number of fault scenarios; 0 selects 20.
	Runs int
	// WorkHours is C; 0 selects 4.
	WorkHours float64
	// SlackFrac is the deadline slack (D = C·(1+slack)); 0 selects 0.5.
	SlackFrac float64
	// WatchdogGap is the scheduler's feed-gap bound; 0 selects 100 ms.
	// Injected stalls sleep 10× the gap (the watchdog must trip) and
	// injected latency 1/20 of it (the run must ride through), so the
	// trip/no-trip decision is deterministic despite wall clocks.
	WatchdogGap time.Duration
	// Log, when set, receives one line per run.
	Log io.Writer
	// Trace, when non-nil, receives the schedulers' simulated-time spans
	// (runs, degraded-path events, fallback transitions) across the
	// soak.
	Trace *obs.Tracer
}

// RunReport is the outcome of one soaked scenario.
type RunReport struct {
	// Seed is the run's seed.
	Seed uint64
	// Scenario is the injected fault schedule.
	Scenario faults.Scenario
	// Strategy names the scheduling strategy exercised.
	Strategy string
	// DeadlineMet and Fallback are the run's outcome: every run
	// satisfies DeadlineMet || Fallback or the soak fails.
	DeadlineMet bool
	// Fallback reports the on-demand migration engaged (deadline guard
	// or feed watchdog).
	Fallback bool
	// Degradation is the scheduler's degraded-path counters.
	Degradation livesched.Degradation
	// Digest fingerprints the result; equal seeds must produce equal
	// digests.
	Digest string
	// Cost is the run's total dollars, for the summary line.
	Cost float64
}

// Report aggregates a soak.
type Report struct {
	// Runs holds one report per scenario, in seed order.
	Runs []RunReport
	// Fallbacks counts runs that engaged the on-demand fallback.
	Fallbacks int
	// WatchdogTrips, InvalidRows and FeedErrors sum the schedulers'
	// degradation counters.
	WatchdogTrips, InvalidRows, FeedErrors int
	// Elapsed is the soak's wall-clock duration.
	Elapsed time.Duration
}

// Soak runs the configured number of fault scenarios and verifies every
// invariant, returning the aggregate report. Any violated invariant —
// a failed run, a missed deadline without fallback, ledger
// inconsistency, nondeterminism, a goroutine leak — returns an error
// naming the offending seed.
func Soak(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 20
	}
	if cfg.WorkHours <= 0 {
		cfg.WorkHours = 4
	}
	if cfg.SlackFrac <= 0 {
		cfg.SlackFrac = 0.5
	}
	if cfg.WatchdogGap <= 0 {
		cfg.WatchdogGap = 100 * time.Millisecond
	}
	if cfg.Preset == "" {
		cfg.Preset = "high"
	}
	start := time.Now()
	before := leak.Baseline()
	rep := &Report{}
	for i := 0; i < cfg.Runs; i++ {
		seed := cfg.Seed + uint64(i)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		first, err := soakOne(ctx, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("chaos: seed %d: %w", seed, err)
		}
		// Determinism: the identical seed must replay bit-for-bit.
		second, err := soakOne(ctx, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("chaos: seed %d (replay): %w", seed, err)
		}
		if first.Digest != second.Digest {
			return nil, fmt.Errorf("chaos: seed %d is nondeterministic: %s vs %s", seed, first.Digest, second.Digest)
		}
		rep.Runs = append(rep.Runs, *first)
		if first.Fallback {
			rep.Fallbacks++
		}
		rep.WatchdogTrips += first.Degradation.WatchdogTrips
		rep.InvalidRows += first.Degradation.InvalidRows
		rep.FeedErrors += first.Degradation.FeedErrors
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "seed %-4d %-28s faults=%-2d deadline=%-5v fallback=%-5v trips=%d invalid=%d cost=$%.2f %s\n",
				seed, first.Strategy, len(first.Scenario.Plans), first.DeadlineMet, first.Fallback,
				first.Degradation.WatchdogTrips, first.Degradation.InvalidRows, first.Cost, first.Digest)
		}
		if err := leak.Check(before); err != nil {
			return nil, fmt.Errorf("chaos: seed %d: %w", seed, err)
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// soakOne builds, runs and verifies a single scenario.
func soakOne(ctx context.Context, cfg Config, seed uint64) (*RunReport, error) {
	history, run, err := window(cfg, seed)
	if err != nil {
		return nil, err
	}
	work := int64(cfg.WorkHours * float64(trace.Hour))
	deadline := int64(float64(work)*(1+cfg.SlackFrac)) / trace.DefaultStep * trace.DefaultStep

	horizon := int64(run.Series[0].Len())
	scenario := faults.RandomScenario(seed, horizon, run.Zones(),
		10*cfg.WatchdogGap, cfg.WatchdogGap/20)

	strat, name := strategy(seed, run.NumZones())
	feed := &livesched.RetryFeed{
		Inner:   &faults.Injector{Inner: &livesched.TraceFeed{Set: run}, Scenario: scenario},
		Backoff: time.Millisecond, Cap: 4 * time.Millisecond, Seed: seed,
	}
	rec := &livesched.Recorder{}
	sched, err := livesched.New(livesched.Config{
		Work:                work,
		Deadline:            deadline,
		CheckpointCost:      300,
		RestartCost:         300,
		History:             history,
		Delay:               market.FixedDelay(300),
		Seed:                seed,
		WatchdogGap:         cfg.WatchdogGap,
		FallbackOnFeedError: true,
		Trace:               cfg.Trace,
	}, strat, feed, rec)
	if err != nil {
		return nil, err
	}
	res, err := sched.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("run failed under faults %v: %w", scenario.Plans, err)
	}
	deg := sched.Degradation()
	if err := verify(res, rec, deg, deadline); err != nil {
		return nil, fmt.Errorf("faults %v: %w", scenario.Plans, err)
	}
	return &RunReport{
		Seed:        seed,
		Scenario:    scenario,
		Strategy:    name,
		DeadlineMet: res.DeadlineMet,
		Fallback:    res.SwitchedOnDemand,
		Degradation: deg,
		Digest:      digest(res),
		Cost:        res.Cost,
	}, nil
}

// verify checks the per-run invariants.
func verify(res *sim.Result, rec *livesched.Recorder, deg livesched.Degradation, deadline int64) error {
	if !res.Completed {
		return fmt.Errorf("run did not complete")
	}
	if !res.DeadlineMet && !res.SwitchedOnDemand {
		return fmt.Errorf("deadline missed without engaging the on-demand fallback: %+v", res)
	}
	if res.DeadlineMet != (res.FinishTime <= deadline) {
		return fmt.Errorf("DeadlineMet=%v inconsistent with finish %d vs deadline %d", res.DeadlineMet, res.FinishTime, deadline)
	}
	// Ledger consistency: the split sums to the total, the entry sum
	// matches the running total, nothing is negative.
	if res.Cost < 0 || res.SpotCost < 0 || res.OnDemandCost < 0 {
		return fmt.Errorf("negative cost: %+v", res)
	}
	if d := math.Abs(res.Cost - (res.SpotCost + res.OnDemandCost)); d > 1e-6 {
		return fmt.Errorf("ledger split off by $%g (total %g, spot %g, od %g)", d, res.Cost, res.SpotCost, res.OnDemandCost)
	}
	var entrySum float64
	for _, e := range res.Ledger.Entries {
		if e.Rate < 0 {
			return fmt.Errorf("negative ledger entry: %+v", e)
		}
		entrySum += e.Rate
	}
	if d := math.Abs(entrySum - res.Ledger.Total()); d > 1e-6 {
		return fmt.Errorf("ledger entries sum to %g, total says %g", entrySum, res.Ledger.Total())
	}
	// The action stream must agree with the result: every run ends in
	// a completion action, and a fallback is externally visible.
	if n := len(rec.Actions); n == 0 || rec.Actions[n-1].Kind != livesched.ActComplete {
		return fmt.Errorf("action stream does not end with complete")
	}
	if res.SwitchedOnDemand && rec.Count(livesched.ActStartOnDemand) == 0 {
		return fmt.Errorf("fallback engaged but no start-on-demand action was dispatched")
	}
	if deg.WatchdogTrips > 0 && !res.SwitchedOnDemand {
		return fmt.Errorf("watchdog tripped but the machine was not driven on-demand")
	}
	return nil
}

// window cuts the per-seed history and run slices, epoch-rebased to 0
// like a live feed would deliver them.
func window(cfg Config, seed uint64) (history, run *trace.Set, err error) {
	set, err := tracegen.Preset(cfg.Preset, seed)
	if err != nil {
		return nil, nil, err
	}
	work := int64(cfg.WorkHours * float64(trace.Hour))
	deadline := int64(float64(work) * (1 + cfg.SlackFrac))
	start := set.Start() + 5*24*trace.Hour
	history = set.Slice(start-2*24*trace.Hour, start).Rebase(start)
	run = set.Slice(start, start+deadline+4*trace.Hour).Rebase(start)
	return history, run, nil
}

// strategy derives the run's scheduling strategy from the seed so the
// soak sweeps the policy space: single-zone and redundant variants of
// every checkpoint policy family.
func strategy(seed uint64, zones int) (sim.Strategy, string) {
	pol := core.PolicySpec{Family: core.PolicyFamily(seed % 4)} // Periodic, Markov-Daly, Edge, Threshold
	n := min(int(seed/4)%3+1, zones)
	label := fmt.Sprintf("redundant%d/%s", n, pol)
	if n == 1 {
		label = "single/" + pol.String()
	}
	return pol.Static(0.81, n), label // the paper's reference bid for cc2.8xlarge
}

// digest fingerprints a result: every externally meaningful field plus
// the full ledger, as a short hex string. Equal digests mean equal
// runs.
func digest(res *sim.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(math.Float64bits(res.Cost))
	put(math.Float64bits(res.SpotCost))
	put(math.Float64bits(res.OnDemandCost))
	put(uint64(res.FinishTime))
	put(uint64(res.Committed))
	put(uint64(res.ReworkSeconds))
	put(uint64(res.OverheadSeconds))
	for _, v := range []bool{res.Completed, res.DeadlineMet, res.SwitchedOnDemand} {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	for _, v := range []int{res.Checkpoints, res.AbortedCheckpoints, res.Restarts,
		res.ProviderKills, res.UserReleases, res.SpecSwitches} {
		put(uint64(v))
	}
	for _, e := range res.Ledger.Entries {
		h.Write([]byte(e.Zone))
		put(uint64(e.HourStart))
		put(math.Float64bits(e.Rate))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
