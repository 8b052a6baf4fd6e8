// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark regenerates its experiment at a reduced
// window count (the paper's 80 windows shrink to benchWindows for
// wall-clock sanity; run cmd/paperfigs -windows 80 for the full sweep)
// and reports the headline statistic as a benchmark metric.
package repro_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/market"
	"repro/internal/markov"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/quote"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

const benchWindows = 6

var (
	benchSuiteOnce sync.Once
	benchSuite     *experiment.Suite
)

// suite returns a shared reduced-scale suite so trace generation is
// paid once across benchmarks.
func suite() *experiment.Suite {
	benchSuiteOnce.Do(func() {
		benchSuite = experiment.NewQuickSuite(1, benchWindows)
	})
	return benchSuite
}

var printOnce sync.Map

// printFirst emits the reproduced rows once per benchmark name, so
// `go test -bench=.` shows the regenerated figure content without
// repeating it for every timing iteration.
func printFirst(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

// BenchmarkFig2Availability regenerates Figure 2: per-zone and combined
// availability over a 15-hour high-volatility window.
func BenchmarkFig2Availability(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := s.Fig2(experiment.RegimeHigh, 5*24*trace.Hour, 0)
		if err != nil {
			b.Fatal(err)
		}
		frac = res.CombinedUpFraction
		printFirst("fig2", func() { _ = report.Fig2(os.Stdout, res) })
	}
	b.ReportMetric(frac*100, "combined-up-%")
}

// BenchmarkVARAnalysis regenerates the §3.1 vector auto-regression over
// a 12-month composite trace.
func BenchmarkVARAnalysis(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := s.VarAnalysis(4)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Dependence.Ratio
		printFirst("var", func() { _ = report.Var(os.Stdout, res) })
	}
	b.ReportMetric(ratio, "self/cross-ratio")
}

// BenchmarkFig4Policies regenerates the Figure 4 panels (t_c = 300 s):
// single-zone Threshold/Edge/Periodic/Markov-Daly versus best-case
// redundancy at the figure's bids, per volatility and slack.
func BenchmarkFig4Policies(b *testing.B) {
	s := suite()
	for _, regime := range []string{experiment.RegimeLow, experiment.RegimeHigh} {
		for _, slack := range experiment.Slacks {
			name := fmt.Sprintf("%s-slack%.0f%%", regime, slack*100)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var median float64
				for i := 0; i < b.N; i++ {
					cell, err := s.Fig4(regime, slack, 300, nil)
					if err != nil {
						b.Fatal(err)
					}
					median = cell.BestRedundant[0.81].Median
					printFirst("fig4-"+name, func() { _ = report.Fig4(os.Stdout, cell) })
				}
				b.ReportMetric(median, "best-red-median-$")
			})
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (optimal policies at t_c = 300 s).
func BenchmarkTable2(b *testing.B) { benchTable(b, 300) }

// BenchmarkTable3 regenerates Table 3 (optimal policies at t_c = 900 s).
func BenchmarkTable3(b *testing.B) { benchTable(b, 900) }

func benchTable(b *testing.B, tc int64) {
	s := suite()
	b.ReportAllocs()
	var median float64
	for i := 0; i < b.N; i++ {
		rows, err := s.Table(tc)
		if err != nil {
			b.Fatal(err)
		}
		median = rows[0].Median
		printFirst(fmt.Sprintf("table-%d", tc), func() { _ = report.BestPolicyTable(os.Stdout, tc, rows) })
	}
	b.ReportMetric(median, "first-cell-median-$")
}

// BenchmarkFig5Adaptive regenerates the Figure 5 panels: Adaptive versus
// Periodic, Markov-Daly and best-case redundancy at B = $0.81.
func BenchmarkFig5Adaptive(b *testing.B) {
	s := suite()
	for _, regime := range []string{experiment.RegimeLow, experiment.RegimeHigh} {
		for _, tc := range experiment.CheckpointCosts {
			name := fmt.Sprintf("%s-tc%d", regime, tc)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				var median float64
				for i := 0; i < b.N; i++ {
					cell, err := s.Fig5(regime, experiment.Slacks[0], tc)
					if err != nil {
						b.Fatal(err)
					}
					median = cell.Adaptive.Median
					printFirst("fig5-"+name, func() { _ = report.Fig5(os.Stdout, cell) })
				}
				b.ReportMetric(median, "adaptive-median-$")
			})
		}
	}
}

// BenchmarkFig6LargeBid regenerates a Figure 6 panel: Large-bid across
// thresholds versus Adaptive on the spike-bearing low-volatility window.
func BenchmarkFig6LargeBid(b *testing.B) {
	s := experiment.NewQuickSuite(9, 30) // dense tiling so windows hit the spike
	b.ReportAllocs()
	var worst float64
	for i := 0; i < b.N; i++ {
		cell, err := s.Fig6(experiment.RegimeLowSpike, experiment.Slacks[0], 300)
		if err != nil {
			b.Fatal(err)
		}
		worst = cell.LargeBid[math.Inf(1)].Max
		printFirst("fig6", func() { _ = report.Fig6(os.Stdout, cell) })
	}
	b.ReportMetric(worst, "naive-worst-$")
}

// BenchmarkHeadline computes the paper-vs-measured headline claims.
func BenchmarkHeadline(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		h, err := s.Headline()
		if err != nil {
			b.Fatal(err)
		}
		ratio = h.AdaptiveVsOnDemand
		printFirst("headline", func() { _ = report.HeadlineReport(os.Stdout, h) })
	}
	b.ReportMetric(ratio, "adaptive-vs-od-x")
}

// BenchmarkOracleGap computes the clairvoyant lower bound per window
// and the Adaptive-to-oracle gap (an analysis beyond the paper).
func BenchmarkOracleGap(b *testing.B) {
	s := suite()
	b.ReportAllocs()
	var medianBound float64
	for i := 0; i < b.N; i++ {
		bounds, err := s.OracleBounds(experiment.RegimeHigh, experiment.Slacks[0])
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, v := range bounds {
			sum += v
		}
		medianBound = sum / float64(len(bounds))
	}
	b.ReportMetric(medianBound, "oracle-mean-$")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------------

func ablationConfig(delay market.DelayModel) sim.Config {
	set := tracegen.HighVolatility(33)
	start := set.Start() + 5*24*trace.Hour
	return sim.Config{
		Trace:          set.Slice(start, start+25*trace.Hour),
		History:        set.Slice(start-2*24*trace.Hour, start),
		Work:           20 * trace.Hour,
		Deadline:       23 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		Delay:          delay,
		Seed:           1,
	}
}

// BenchmarkAblationQueueDelay quantifies the cost of the measured
// spot-request queuing delay against an idealised instant-start market.
func BenchmarkAblationQueueDelay(b *testing.B) {
	for _, c := range []struct {
		name  string
		delay market.DelayModel
	}{
		{"measured", market.DefaultDelay()},
		{"none", market.FixedDelay(0)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(ablationConfig(c.delay), core.Redundant(core.NewMarkovDaly(), 0.81, []int{0, 1, 2}))
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			b.ReportMetric(cost, "cost-$")
		})
	}
}

// BenchmarkAblationDalyOrder compares Daly's higher-order checkpoint
// interval against Young's first-order estimate inside Markov-Daly.
func BenchmarkAblationDalyOrder(b *testing.B) {
	for _, higher := range []bool{true, false} {
		name := "young"
		if higher {
			name = "daly"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var cost float64
			for i := 0; i < b.N; i++ {
				pol := core.NewMarkovDaly()
				pol.HigherOrder = higher
				res, err := sim.Run(ablationConfig(market.FixedDelay(300)), core.SingleZone(pol, 0.81, 0))
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			b.ReportMetric(cost, "cost-$")
		})
	}
}

// BenchmarkAblationZones sweeps the redundancy degree N ∈ {1, 2, 3}
// (the paper reports diminishing returns below N = 3).
func BenchmarkAblationZones(b *testing.B) {
	for n := 1; n <= 3; n++ {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			zones := make([]int, n)
			for i := range zones {
				zones[i] = i
			}
			var cost float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(ablationConfig(market.FixedDelay(300)), core.Redundant(core.NewMarkovDaly(), 0.81, zones))
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			b.ReportMetric(cost, "cost-$")
		})
	}
}

// BenchmarkAblationAdaptiveTriggers compares the paper's decision
// triggers (terminations and hour boundaries) against hour boundaries
// only.
func BenchmarkAblationAdaptiveTriggers(b *testing.B) {
	for _, hourOnly := range []bool{false, true} {
		name := "kills+hours"
		if hourOnly {
			name = "hours-only"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var cost float64
			for i := 0; i < b.N; i++ {
				a := core.NewAdaptive()
				a.ReDecideOnHourOnly = hourOnly
				res, err := sim.Run(ablationConfig(market.FixedDelay(300)), a)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
			}
			b.ReportMetric(cost, "cost-$")
		})
	}
}

// BenchmarkAblationBidChooser compares the analytic bid chooser
// (internal/opt: stationary-chain expected cost, an extension beyond the
// paper) against the paper's simulation-based Adaptive search on the
// same window, single zone.
func BenchmarkAblationBidChooser(b *testing.B) {
	set := tracegen.HighVolatility(33)
	start := set.Start() + 5*24*trace.Hour
	histPrices := markov.Quantize(set.Series[0].Slice(start-2*24*trace.Hour, start).Prices, 0.05)
	chain, err := markov.Fit(histPrices, trace.DefaultStep)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ablationConfig(market.FixedDelay(300))
	requiredRate := float64(cfg.Work) / float64(cfg.Deadline)

	b.Run("analytic", func(b *testing.B) {
		b.ReportAllocs()
		var cost float64
		for i := 0; i < b.N; i++ {
			rec, err := opt.BestBid(chain, core.BidGrid(), opt.Overheads{
				CheckpointCost: float64(cfg.CheckpointCost),
				RestartCost:    float64(cfg.RestartCost),
				QueueDelay:     300,
			}, requiredRate)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Run(cfg, core.SingleZone(core.NewMarkovDaly(), rec.Bid, 0))
			if err != nil {
				b.Fatal(err)
			}
			cost = res.Cost
		}
		b.ReportMetric(cost, "cost-$")
	})
	b.Run("simulated", func(b *testing.B) {
		b.ReportAllocs()
		var cost float64
		for i := 0; i < b.N; i++ {
			a := core.NewAdaptive()
			a.MaxZones = 1
			res, err := sim.Run(cfg, a)
			if err != nil {
				b.Fatal(err)
			}
			cost = res.Cost
		}
		b.ReportMetric(cost, "cost-$")
	})
}

// BenchmarkAblationEdgeFamily compares the paper's reactive policies —
// Edge and Threshold — against the repository's CUSUM-based Changepoint
// extension on a volatile window.
func BenchmarkAblationEdgeFamily(b *testing.B) {
	for _, kind := range []string{"edge", "threshold", "changepoint"} {
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			var cost float64
			var ckpts int
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(ablationConfig(market.FixedDelay(300)), core.SingleZone(experiment.NewPolicy(kind), 0.81, 0))
				if err != nil {
					b.Fatal(err)
				}
				cost = res.Cost
				ckpts = res.Checkpoints
			}
			b.ReportMetric(cost, "cost-$")
			b.ReportMetric(float64(ckpts), "checkpoints")
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the substrates
// ---------------------------------------------------------------------------

// BenchmarkEngineRun times one full-scale single-zone simulation.
func BenchmarkEngineRun(b *testing.B) {
	cfg := ablationConfig(market.FixedDelay(300))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, core.SingleZone(core.NewPeriodic(), 0.81, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarkovUptime times the closed-form expected-uptime solve on
// a two-day volatile history.
func BenchmarkMarkovUptime(b *testing.B) {
	set := tracegen.HighVolatility(3)
	hist := markov.Quantize(set.Series[0].Slice(0, 2*24*trace.Hour).Prices, 0.05)
	m, err := markov.Fit(hist, 300)
	if err != nil {
		b.Fatal(err)
	}
	cur := hist[len(hist)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ExpectedUptimeExact(0.81, cur)
	}
}

// BenchmarkTraceGeneration times generating one month of three-zone
// high-volatility trace.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tracegen.HighVolatility(uint64(i))
	}
}

// BenchmarkAdaptiveDecision times one full Adaptive run over a volatile
// day — dominated by the permutation searches at each decision point,
// i.e. the Evaluator's pooled parallel replays.
func BenchmarkAdaptiveDecision(b *testing.B) {
	cfg := ablationConfig(market.FixedDelay(300))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cfg, core.NewAdaptive()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveDecisionBatched is BenchmarkAdaptiveDecision with
// the columnar batched evaluator selected explicitly; paired with
// BenchmarkAdaptiveDecisionOracle it measures the batching speedup
// (scripts/bench.sh computes speedup_x into BENCH_batch.json).
func BenchmarkAdaptiveDecisionBatched(b *testing.B) {
	cfg := ablationConfig(market.FixedDelay(300))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := core.NewAdaptive()
		a.Eval = &core.Evaluator{DisableBatch: false}
		if _, err := sim.Run(cfg, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveDecisionOracle is BenchmarkAdaptiveDecision forced
// through the per-permutation machine-oracle replays (the pre-batching
// hot path, kept as the golden reference).
func BenchmarkAdaptiveDecisionOracle(b *testing.B) {
	cfg := ablationConfig(market.FixedDelay(300))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := core.NewAdaptive()
		a.Eval = &core.Evaluator{DisableBatch: true}
		if _, err := sim.Run(cfg, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchRank times one quote-service ranking sweep — the full
// (bid, zones, policy) grid priced by Evaluator.MeasureAll through the
// batched engine — on the volatile ablation window.
func BenchmarkBatchRank(b *testing.B) {
	cfg := ablationConfig(market.FixedDelay(300))
	ev := core.NewEvaluator()
	req := core.PlanRequest{
		History:        cfg.History,
		Work:           cfg.Work,
		Deadline:       cfg.Deadline,
		CheckpointCost: cfg.CheckpointCost,
		RestartCost:    cfg.RestartCost,
		MaxZones:       3,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plans, err := ev.Rank(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(plans) == 0 {
			b.Fatal("no plans")
		}
	}
}

// BenchmarkAdaptiveDecisionObs is BenchmarkAdaptiveDecision with span
// tracing enabled on both the run and its inner Evaluator replays; the
// pair bounds the observability overhead (scripts/bench.sh computes the
// percentage into BENCH_obs.json).
func BenchmarkAdaptiveDecisionObs(b *testing.B) {
	tracer := obs.NewTracer(obs.DefaultSpanCapacity)
	cfg := ablationConfig(market.FixedDelay(300))
	cfg.ObsTrace = tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := core.NewAdaptive()
		a.Eval = &core.Evaluator{Trace: tracer}
		if _, err := sim.Run(cfg, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineReset times re-arming a pooled machine and driving a
// full single-zone run on it, the Evaluator's steady-state replay cycle;
// allocs/op is the headline (a fresh NewMachine pays the full engine
// allocation every run).
func BenchmarkMachineReset(b *testing.B) {
	cfg := ablationConfig(market.FixedDelay(300))
	m, err := sim.AcquireMachine(cfg, core.SingleZone(core.NewPeriodic(), 0.81, 0))
	if err != nil {
		b.Fatal(err)
	}
	defer sim.ReleaseMachine(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(cfg, core.SingleZone(core.NewPeriodic(), 0.81, 0)); err != nil {
			b.Fatal(err)
		}
		for !m.Done() {
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMachineResetObs is BenchmarkMachineReset with span tracing
// enabled on the machine's config, the worst case for the engine's
// per-run span records.
func BenchmarkMachineResetObs(b *testing.B) {
	cfg := ablationConfig(market.FixedDelay(300))
	cfg.ObsTrace = obs.NewTracer(obs.DefaultSpanCapacity)
	m, err := sim.AcquireMachine(cfg, core.SingleZone(core.NewPeriodic(), 0.81, 0))
	if err != nil {
		b.Fatal(err)
	}
	defer sim.ReleaseMachine(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(cfg, core.SingleZone(core.NewPeriodic(), 0.81, 0)); err != nil {
			b.Fatal(err)
		}
		for !m.Done() {
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// streamBenchRows returns a row source cycling the ablation history, so
// streaming benchmarks can tick indefinitely past the window's end.
func streamBenchRows(hist *trace.Set) func(i int) []float64 {
	n := hist.Series[0].Len()
	return func(i int) []float64 {
		return hist.PricesAt(hist.Start() + int64(i%n)*hist.Step())
	}
}

// BenchmarkStreamTick times one steady-state streaming tick: append a
// price row and incrementally re-rank the full (bid, zones, policy)
// grid via the resident batch state — the O(delta) path that replaces
// a from-scratch Rank per tick. scripts/bench.sh pairs it with
// BenchmarkStreamFullRerank and gates on the speedup.
func BenchmarkStreamTick(b *testing.B) {
	cfg := ablationConfig(market.FixedDelay(300))
	hist := cfg.History
	se, err := core.NewStreamEvaluator(nil, core.StreamConfig{
		Zones:           hist.Zones(),
		Start:           hist.Start(),
		Step:            hist.Step(),
		Work:            cfg.Work,
		Deadline:        cfg.Deadline,
		CheckpointCost:  cfg.CheckpointCost,
		RestartCost:     cfg.RestartCost,
		MaxZones:        3,
		CrossCheckEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	row := streamBenchRows(hist)
	n := hist.Series[0].Len()
	for i := 0; i < n; i++ { // warm to the full window
		if _, err := se.Advance(row(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := se.Advance(row(n + i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamFullRerank is the per-tick baseline the streaming
// evaluator replaces: append the row to a tape and run a from-scratch
// Evaluator.Rank over the whole window, with the same retention policy
// (compact to half past the streaming default) so both benchmarks see
// comparable window lengths.
func BenchmarkStreamFullRerank(b *testing.B) {
	cfg := ablationConfig(market.FixedDelay(300))
	hist := cfg.History
	ev := core.NewEvaluator()
	tape, err := trace.NewTape(hist.Zones(), hist.Start(), hist.Step())
	if err != nil {
		b.Fatal(err)
	}
	row := streamBenchRows(hist)
	n := hist.Series[0].Len()
	for i := 0; i < n; i++ {
		if err := tape.Append(row(i)); err != nil {
			b.Fatal(err)
		}
	}
	req := core.PlanRequest{
		Work:           cfg.Work,
		Deadline:       cfg.Deadline,
		CheckpointCost: cfg.CheckpointCost,
		RestartCost:    cfg.RestartCost,
		MaxZones:       3,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tape.Append(row(n + i)); err != nil {
			b.Fatal(err)
		}
		tape.Trim(core.DefaultStreamRetention / 2)
		req.History = tape.Set()
		plans, err := ev.Rank(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(plans) == 0 {
			b.Fatal("no plans")
		}
	}
}

// BenchmarkStreamTickShapes times one steady-state streamer tick with 1,
// 8 and 64 subscribed shapes that differ only in work and deadline, so
// they share one resident grid: the tick steps the grid once and then
// scores and publishes every shape. It reports the streamer's resident
// heap after GC as resident-MB. scripts/bench.sh gates the 64-shape
// tick at no more than 16× the 1-shape tick.
func BenchmarkStreamTickShapes(b *testing.B) {
	hist := ablationConfig(market.FixedDelay(300)).History
	row := streamBenchRows(hist)
	n := hist.Series[0].Len()
	for _, shapes := range []int{1, 8, 64} {
		b.Run(fmt.Sprint(shapes), func(b *testing.B) {
			before := liveHeap()
			st := &quote.Streamer{
				Zones:           hist.Zones(),
				Start:           hist.Start(),
				Step:            hist.Step(),
				CrossCheckEvery: -1,
			}
			for i := 0; i < shapes; i++ {
				work := 2 + 0.25*float64(i)
				sub, err := st.Subscribe(quote.Request{WorkHours: work, DeadlineHours: 3 * work, MaxZones: 3, Top: 3})
				if err != nil {
					b.Fatal(err)
				}
				defer sub.Close()
			}
			seq := uint64(0)
			tick := func() {
				seq++
				if err := st.Ingest(seq, row(int(seq-1))); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < n; i++ { // warm to the full window
				tick()
			}
			resident := liveHeap() - before
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick()
			}
			b.ReportMetric(float64(resident)/(1<<20), "resident-MB")
		})
	}
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// BenchmarkStreamResident warms one stream grid (max_zones 3, no
// cross-check) over the high-volatility preset past its retention bound
// and reports the grid's live heap after GC at 576 ticks, at
// DefaultStreamRetention−1 (8191) ticks and at 8193, one tick after the
// compaction to half the retention, as resident-576-MB,
// resident-8191-MB and resident-8193-MB. catchup-us is the mean wall
// time of a tick that caught up at least one permutation without a
// rebuild. One op is the whole warm run. scripts/bench.sh gates the
// growth from resident-576-MB to resident-8191-MB per retained tick.
func BenchmarkStreamResident(b *testing.B) {
	set := tracegen.HighVolatility(33)
	last := core.DefaultStreamRetention + 1
	marks := map[int]string{
		576:                             "resident-576-MB",
		core.DefaultStreamRetention - 1: "resident-8191-MB",
		last:                            "resident-8193-MB",
	}
	sums := map[string]float64{}
	var catchup time.Duration
	var catchTicks int
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		se, err := core.NewStreamEvaluator(nil, core.StreamConfig{
			Zones:           set.Zones(),
			Start:           set.Start(),
			Step:            set.Step(),
			Work:            6 * trace.Hour,
			Deadline:        9 * trace.Hour,
			CheckpointCost:  core.DefaultCheckpointCost,
			RestartCost:     core.DefaultCheckpointCost,
			MaxZones:        3,
			CrossCheckEvery: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 1; i <= last; i++ {
			st0 := se.Stats()
			t := time.Now()
			if _, err := se.Advance(set.PricesAt(set.Start() + int64(i-1)*set.Step())); err != nil {
				b.Fatal(err)
			}
			d := time.Since(t)
			if st := se.Stats(); st.CatchUps > st0.CatchUps && st.Rebuilds == st0.Rebuilds {
				catchup += d
				catchTicks++
			}
			if name, ok := marks[i]; ok {
				b.StopTimer()
				sums[name] += float64(liveHeap()-before) / (1 << 20)
				b.StartTimer()
			}
		}
		runtime.KeepAlive(se)
	}
	for name, sum := range sums {
		b.ReportMetric(sum/float64(b.N), name)
	}
	if catchTicks > 0 {
		b.ReportMetric(float64(catchup.Microseconds())/float64(catchTicks), "catchup-us")
	}
}
