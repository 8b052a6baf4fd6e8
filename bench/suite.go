package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// suiteDigestsJSON holds the committed FNV-64a digests of the rendered
// suite, keyed "seed/windows".
//
//go:embed testdata/suite_digests.json
var suiteDigestsJSON []byte

// goldenDigest returns the committed digest for a suite seed and window
// count, if there is one.
func goldenDigest(seed uint64, windows int) (string, bool, error) {
	var golden map[string]string
	if err := json.Unmarshal(suiteDigestsJSON, &golden); err != nil {
		return "", false, fmt.Errorf("reading the committed suite digests: %w", err)
	}
	d, ok := golden[fmt.Sprintf("%d/%d", seed, windows)]
	return d, ok, nil
}

// checkSuiteDigest compares a rendered suite's digest with the committed
// one. A seed and window count with no committed digest is unverified,
// not wrong.
func checkSuiteDigest(seed uint64, windows int, digest string) (verified bool, err error) {
	want, ok, err := goldenDigest(seed, windows)
	if err != nil || !ok {
		return false, err
	}
	if digest != want {
		return true, fmt.Errorf("digest %s, committed %s for seed %d at %d windows", digest, want, seed, windows)
	}
	return true, nil
}

// suiteSeed picks which committed reproduction a run regenerates: odd
// workload seeds run suite seed 1, even ones suite seed 2. The suite's
// seed generates its month-long price regimes, and the cost of the
// whole suite follows them: over suite seeds 1–10 a 40-window
// regeneration takes 6.6–7.9 s on 2 vCPU, a spread wider than any
// bound. Seeds 1 and 2 differ by 3.5 %, and both have committed
// digests, so every run is checked byte for byte.
func suiteSeed(seed uint64) uint64 { return 2 - seed%2 }

// suiteSteps are the experiments `paperfigs all` runs, in its order.
var suiteSteps = []string{"fig1", "fig3", "fig2", "var", "fig4", "table2", "table3", "fig5", "fig6", "headline", "oracle", "convergence", "yearbound"}

// suiteRun renders the suite once, as `paperfigs all` prints it, timing
// each experiment driver and the report rendering.
type suiteRun struct {
	s      *experiment.Suite
	rec    *recorder
	parent uint64
	out    bytes.Buffer
	secs   map[string]float64 // compute time per experiment
	render float64
}

// compute runs one experiment driver under its span.
func compute[T any](r *suiteRun, name string, f func() (T, error)) (T, error) {
	id, s0, t := r.rec.newID(), r.rec.now(), time.Now()
	v, err := f()
	r.secs[name] += time.Since(t).Seconds()
	r.rec.add(span{ID: id, Parent: r.parent, Name: "experiment." + name, Start: s0, End: r.rec.now()})
	return v, err
}

// emit renders output through internal/report under a span.
func (r *suiteRun) emit(f func(w io.Writer) error) error {
	id, s0, t := r.rec.newID(), r.rec.now(), time.Now()
	err := f(&r.out)
	r.render += time.Since(t).Seconds()
	r.rec.add(span{ID: id, Parent: r.parent, Name: "report.render", Start: s0, End: r.rec.now()})
	return err
}

// digest returns the FNV-64a digest of the rendered output.
func (r *suiteRun) digest() string {
	h := fnv.New64a()
	h.Write(r.out.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// renderSuite regenerates and renders every experiment once.
func renderSuite(s *experiment.Suite, rec *recorder) (*suiteRun, error) {
	r := &suiteRun{s: s, rec: rec, parent: rec.newID(), secs: map[string]float64{}}
	start := rec.now()
	steps := map[string]func() error{
		"fig1": func() error { return r.illustration("fig1", s.Fig1) },
		"fig3": func() error { return r.illustration("fig3", s.Fig3) },
		"fig2": r.fig2, "var": r.varAnalysis, "fig4": r.fig4,
		"table2": func() error { return r.table("table2", 300) },
		"table3": func() error { return r.table("table3", 900) },
		"fig5":   r.fig5, "fig6": r.fig6, "headline": r.headline, "oracle": r.oracle,
		"convergence": r.convergence, "yearbound": r.yearBound,
	}
	for _, name := range suiteSteps {
		if err := steps[name](); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	rec.add(span{ID: r.parent, Name: "suite", Start: start, End: rec.now()})
	return r, nil
}

// newline ends a section with a blank line.
func newline(w io.Writer) error {
	_, err := fmt.Fprintln(w)
	return err
}

func (r *suiteRun) illustration(name string, build func() (*experiment.Illustration, error)) error {
	ill, err := compute(r, name, build)
	if err != nil {
		return err
	}
	return r.emit(func(w io.Writer) error {
		if err := report.RunChart(w, ill.Cfg, ill.Res, ill.Bid, 76); err != nil {
			return err
		}
		return newline(w)
	})
}

func (r *suiteRun) fig2() error {
	res, err := compute(r, "fig2", func() (*experiment.Fig2Result, error) {
		return r.s.Fig2(experiment.RegimeHigh, 5*24*trace.Hour, 0)
	})
	if err != nil {
		return err
	}
	return r.emit(func(w io.Writer) error {
		if err := report.Fig2(w, res); err != nil {
			return err
		}
		return newline(w)
	})
}

func (r *suiteRun) varAnalysis() error {
	res, err := compute(r, "var", func() (*experiment.VarResult, error) { return r.s.VarAnalysis(6) })
	if err != nil {
		return err
	}
	return r.emit(func(w io.Writer) error {
		if err := report.Var(w, res); err != nil {
			return err
		}
		return newline(w)
	})
}

func (r *suiteRun) fig4() error {
	for _, regime := range []string{experiment.RegimeLow, experiment.RegimeHigh} {
		for _, slack := range experiment.Slacks {
			cell, err := compute(r, "fig4", func() (*experiment.Fig4Cell, error) { return r.s.Fig4(regime, slack, 300, nil) })
			if err != nil {
				return err
			}
			if err := r.emit(func(w io.Writer) error { return report.Fig4(w, cell) }); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *suiteRun) table(name string, tc int64) error {
	rows, err := compute(r, name, func() ([]experiment.BestPolicy, error) { return r.s.Table(tc) })
	if err != nil {
		return err
	}
	return r.emit(func(w io.Writer) error {
		if err := report.BestPolicyTable(w, tc, rows); err != nil {
			return err
		}
		return newline(w)
	})
}

func (r *suiteRun) fig5() error {
	cells, err := compute(r, "fig5", r.s.Fig5All)
	if err != nil {
		return err
	}
	return r.emit(func(w io.Writer) error {
		for _, cell := range cells {
			if err := report.Fig5(w, cell); err != nil {
				return err
			}
		}
		return nil
	})
}

func (r *suiteRun) fig6() error {
	cells, err := compute(r, "fig6", r.s.Fig6All)
	if err != nil {
		return err
	}
	return r.emit(func(w io.Writer) error {
		for _, cell := range cells {
			if err := report.Fig6(w, cell); err != nil {
				return err
			}
		}
		return nil
	})
}

func (r *suiteRun) headline() error {
	h, err := compute(r, "headline", r.s.Headline)
	if err != nil {
		return err
	}
	return r.emit(func(w io.Writer) error { return report.HeadlineReport(w, h) })
}

func (r *suiteRun) oracle() error {
	var rows [][]string
	for _, regime := range []string{experiment.RegimeLow, experiment.RegimeHigh} {
		for _, slack := range experiment.Slacks {
			type gap struct {
				bounds []float64
				cell   *experiment.Fig5Cell
			}
			g, err := compute(r, "oracle", func() (gap, error) {
				bounds, err := r.s.OracleBounds(regime, slack)
				if err != nil {
					return gap{}, err
				}
				cell, err := r.s.Fig5(regime, slack, 300)
				return gap{bounds, cell}, err
			})
			if err != nil {
				return err
			}
			samples := g.cell.AdaptiveSamples()
			ratios := make([]float64, 0, len(samples))
			for i, c := range samples {
				if i < len(g.bounds) && g.bounds[i] > 0 {
					ratios = append(ratios, c/g.bounds[i])
				}
			}
			rows = append(rows, []string{
				regime,
				fmt.Sprintf("%.0f%%", slack*100),
				fmt.Sprintf("%.2f", stats.Quantile(g.bounds, 0.5)),
				fmt.Sprintf("%.2f", g.cell.Adaptive.Median),
				fmt.Sprintf("%.2fx", stats.Quantile(ratios, 0.5)),
				fmt.Sprintf("%.2fx", stats.Quantile(ratios, 1.0)),
			})
		}
	}
	return r.emit(func(w io.Writer) error {
		fmt.Fprintln(w, "Clairvoyant oracle gap — Adaptive cost / hindsight-optimal lower bound")
		if err := report.Table(w, []string{"volatility", "slack", "oracle median $", "adaptive median $", "median gap", "worst gap"}, rows); err != nil {
			return err
		}
		return newline(w)
	})
}

// convergenceCounts are the window-count prefixes paperfigs reports.
var convergenceCounts = []int{5, 10, 20, 40, 80}

// convergence runs only when the suite holds the smallest prefix count:
// below it the driver has nothing to report and paperfigs fails.
func (r *suiteRun) convergence() error {
	if r.s.Windows < convergenceCounts[0] {
		return nil
	}
	pts, err := compute(r, "convergence", func() ([]experiment.ConvergencePoint, error) {
		return r.s.Convergence(experiment.RegimeHigh, 0.15, 300, experiment.KindPeriodic, 0.81, convergenceCounts)
	})
	if err != nil {
		return err
	}
	return r.emit(func(w io.Writer) error {
		fmt.Fprintln(w, "Window-count convergence — periodic @ $0.81, high volatility, 15% slack")
		var rows [][]string
		for _, p := range pts {
			rows = append(rows, []string{strconv.Itoa(p.Windows), fmt.Sprintf("%.2f", p.Median), fmt.Sprintf("%.2f", p.IQR)})
		}
		if err := report.Table(w, []string{"windows", "median $", "IQR $"}, rows); err != nil {
			return err
		}
		return newline(w)
	})
}

func (r *suiteRun) yearBound() error {
	res, err := compute(r, "yearbound", func() (*experiment.YearBoundResult, error) { return r.s.YearBound(r.s.Windows, 0.15, 300) })
	if err != nil {
		return err
	}
	return r.emit(func(w io.Writer) error {
		fmt.Fprintf(w, "12-month bounded-cost check — Adaptive across %d windows spanning the year\n", res.Windows)
		fmt.Fprintf(w, "cost: median $%.2f, worst $%.2f = %.2fx on-demand (paper: never > 1.20x)\n",
			res.Costs.Median, res.Costs.Max, res.WorstOverOnDemand)
		_, err := fmt.Fprintf(w, "deadlines missed: %d (the guard guarantees 0)\n\n", res.DeadlinesMissed)
		return err
	})
}

// suiteSetupBatch is how many suites one timed set-up builds. One build
// takes about a millisecond, short enough for a single descheduling of
// the VM's vCPU to double it (single builds read 1.2–2.5 ms from one
// process to the next), so a set-up's time is the mean over a batch
// (1.35–1.51 ms).
const suiteSetupBatch = 100

// primeSuite builds the suite and generates its three month-long price
// regimes, which every experiment reads.
func primeSuite(seed uint64, windows int) *experiment.Suite {
	s := experiment.NewQuickSuite(seed, windows)
	for _, name := range []string{experiment.RegimeLow, experiment.RegimeLowSpike, experiment.RegimeHigh} {
		s.Regime(name)
	}
	return s
}

// runPaperSuite regenerates every figure and table of the paper
// reproduction back to back until the next regeneration would overrun
// the measured phase (at least once), and checks that every
// regeneration renders byte-identical output matching the committed
// digest.
func runPaperSuite(cfg config, res *Result) error {
	seed := suiteSeed(cfg.seed)
	var rec *recorder
	if cfg.traced() {
		rec = newRecorder(traceCapacity(1, 1))
	}
	var s *experiment.Suite
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		t := time.Now()
		for j := 0; j < suiteSetupBatch; j++ {
			s = primeSuite(seed, cfg.windows)
		}
		setups = append(setups, time.Since(t).Seconds()/suiteSetupBatch)
	}

	var runs []*suiteRun
	var walls []float64
	p := beginPhase()
	for {
		t := time.Now()
		run, err := renderSuite(s, rec)
		if err != nil {
			return err
		}
		wall := time.Since(t)
		runs = append(runs, run)
		walls = append(walls, wall.Seconds())
		if time.Since(p.start)+wall > cfg.measure {
			break
		}
	}
	elapsed := time.Since(p.start)
	res.Attempted = int64(len(runs))
	res.addCommon(p, res.Attempted, setups)
	ms := make([]float64, len(walls))
	for i, w := range walls {
		ms[i] = w * 1e3
	}
	sm := sorted(ms)
	res.metric("latency_p50_ms", pct(sm, 0.50), len(sm))
	res.layer("latency_p99_ms", pct(sm, 0.99), len(sm))
	res.metric("throughput_per_s", float64(len(runs))/elapsed.Seconds(), len(runs))

	digest := runs[0].digest()
	var repeatErr error
	for i, run := range runs[1:] {
		if d := run.digest(); d != digest {
			repeatErr = fmt.Errorf("regeneration %d rendered digest %s, the first %s", i+2, d, digest)
		}
	}
	res.check("every regeneration renders byte-identical output", repeatErr)
	verified, err := checkSuiteDigest(seed, cfg.windows, digest)
	name := fmt.Sprintf("digest %s of suite seed %d at %d windows matches the committed one", digest, seed, cfg.windows)
	if !verified && err == nil {
		res.note(fmt.Sprintf("digest %s of suite seed %d at %d windows", digest, seed, cfg.windows), "unverified: no committed digest")
	} else {
		res.check(name, err)
	}
	if rec == nil {
		return nil
	}
	suiteProbes(res, s, rec.obsTracer())
	return finishTrace(cfg, res, rec, func(_ []span, program []obs.Span) {
		suiteLayers(res, runs, walls, setups)
		addSweepLayers(res, program)
		decisions := sorted(durationsByName(program, "adaptive.decision"))
		res.layer("core.decision_ms", pct(decisions, 0.5)/1e6, len(decisions))
	})
}

// suiteLayers splits each regeneration's wall time into its experiment
// drivers, the report rendering and the remaining gap.
func suiteLayers(res *Result, runs []*suiteRun, walls, setups []float64) {
	rows := make([]string, 0, len(suiteSteps)+2)
	for _, name := range suiteSteps {
		rows = append(rows, "experiment."+name)
	}
	rows = append(rows, "report.render", "gap (suite self)")
	samples := map[string][]float64{}
	total := make([]float64, len(runs))
	for i, run := range runs {
		total[i] = walls[i] * 1e9
		gap := walls[i] - run.render
		for _, name := range suiteSteps {
			samples["experiment."+name] = append(samples["experiment."+name], run.secs[name]*1e9)
			gap -= run.secs[name]
		}
		samples["report.render"] = append(samples["report.render"], run.render*1e9)
		samples["gap (suite self)"] = append(samples["gap (suite self)"], gap*1e9)
	}
	res.Breakdown = breakdown(total, rows, samples)
	for _, name := range suiteSteps {
		res.layer("experiment."+name+"_s", pct(sorted(samples["experiment."+name]), 0.5)/1e9, len(runs))
	}
	res.layer("report.render_s", pct(sorted(samples["report.render"]), 0.5)/1e9, len(runs))
	res.layer("bench.gap_ms_p50", pct(sorted(samples["gap (suite self)"]), 0.5)/1e6, len(runs))
	_, med, _ := quartiles(setups)
	res.layer("tracegen.regimes_s", med, len(setups))
}

// decisionCounter is the Adaptive strategy's decision sink for the
// probes: it only counts.
type decisionCounter struct{ n int }

// RecordDecision implements core.DecisionSink.
func (c *decisionCounter) RecordDecision(core.DecisionPoint) { c.n++ }

// suiteProbes runs the first eight high-volatility suite windows (15 %
// slack, t_c = 300 s) once under a static single-zone policy and once
// under Adaptive, whose evaluator records into the program tracer, so
// a static simulation, an Adaptive run and one Adaptive decision each
// get a unit cost.
func suiteProbes(res *Result, s *experiment.Suite, tracer *obs.Tracer) {
	slack := experiment.Slacks[0]
	windows := s.ExperimentWindows(experiment.RegimeHigh, slack)
	windows = windows[:min(8, len(windows))]
	var static, adaptive []float64
	sink := &decisionCounter{}
	for _, w := range windows {
		cfg := s.Config(w, slack, 300)
		t := time.Now()
		if _, err := sim.Run(cfg, core.SingleZone(experiment.NewPolicy(experiment.KindPeriodic), experiment.Fig5Bid, 0)); err != nil {
			res.check("probe static run", err)
			return
		}
		static = append(static, float64(time.Since(t))/1e6)
		a := core.NewAdaptive()
		a.Eval = &core.Evaluator{Trace: tracer}
		a.Sink = sink
		t = time.Now()
		if _, err := sim.Run(cfg, a); err != nil {
			res.check("probe adaptive run", err)
			return
		}
		adaptive = append(adaptive, float64(time.Since(t))/1e6)
	}
	res.layer("sim.run_static_ms", pct(sorted(static), 0.5), len(static))
	res.layer("core.adaptive_run_ms", pct(sorted(adaptive), 0.5), len(adaptive))
	res.layer("core.decisions", float64(sink.n), len(adaptive))
}
