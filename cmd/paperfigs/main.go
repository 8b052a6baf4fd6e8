// Command paperfigs regenerates every table and figure of the paper's
// evaluation from the simulation harness.
//
// Usage:
//
//	paperfigs [flags] <experiment>
//
// where experiment is one of: fig1, fig2, fig3 (the paper's didactic
// timelines and availability view), var, fig4, table2, table3, fig5,
// fig6, headline, oracle (a clairvoyant-gap analysis beyond the paper),
// all.
//
// Flags control scale: -windows selects the number of partially
// overlapping experiment windows per regime (the paper uses 80; smaller
// values are faster with thinner tails).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperfigs: ")

	seed := flag.Uint64("seed", 1, "suite seed (traces and run streams)")
	windows := flag.Int("windows", experiment.DefaultWindows, "experiment windows per regime (paper: 80)")
	workers := flag.Int("workers", 0, "worker pool size for suite runs (0 = all cores); output is identical at any setting")
	csvDir := flag.String("csv", "", "also write per-figure boxplot CSVs into this directory")
	svgDir := flag.String("svg", "", "also write per-figure SVG boxplot panels into this directory")
	tcFlag := flag.Int64("tc", 300, "checkpoint cost for fig4 (the paper plots 300 s and tabulates 900 s)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paperfigs [flags] fig1|fig2|fig3|var|fig4|table2|table3|fig5|fig6|headline|oracle|convergence|yearbound|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	s := experiment.NewQuickSuite(*seed, *windows)
	s.Workers = *workers
	r := runner{s: s, csvDir: *csvDir, svgDir: *svgDir, tc: *tcFlag}
	for _, dir := range []string{r.csvDir, r.svgDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				log.Fatal(err)
			}
		}
	}

	var err error
	switch what := flag.Arg(0); what {
	case "fig1":
		err = r.illustration(r.s.Fig1)
	case "fig3":
		err = r.illustration(r.s.Fig3)
	case "fig2":
		err = r.fig2()
	case "var":
		err = r.varAnalysis()
	case "fig4":
		err = r.fig4()
	case "table2":
		err = r.table(300)
	case "table3":
		err = r.table(900)
	case "fig5":
		err = r.fig5()
	case "fig6":
		err = r.fig6()
	case "headline":
		err = r.headline()
	case "oracle":
		err = r.oracle()
	case "convergence":
		err = r.convergence()
	case "yearbound":
		err = r.yearBound()
	case "all":
		for _, f := range []func() error{
			func() error { return r.illustration(r.s.Fig1) },
			func() error { return r.illustration(r.s.Fig3) },
			r.fig2, r.varAnalysis, r.fig4,
			func() error { return r.table(300) },
			func() error { return r.table(900) },
			r.fig5, r.fig6, r.headline, r.oracle, r.convergence, r.yearBound} {
			if err = f(); err != nil {
				break
			}
		}
	default:
		log.Fatalf("unknown experiment %q", what)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runner bundles the suite with output options.
type runner struct {
	s      *experiment.Suite
	csvDir string
	svgDir string
	tc     int64
}

// writeCSV emits labelled boxes as a CSV file when -csv is set.
func (r runner) writeCSV(name string, labels []string, boxes []stats.Box) error {
	if r.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(r.csvDir, name))
	if err != nil {
		return err
	}
	if err := report.WriteBoxesCSV(f, labels, boxes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSVG emits the panel when -svg is set; the on-demand and minimum
// spot references ride along.
func (r runner) writeSVG(name, title string, labels []string, boxes []stats.Box) error {
	if r.svgDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(r.svgDir, name))
	if err != nil {
		return err
	}
	panel := report.SVGPanel{
		Title:  title,
		Labels: labels,
		Boxes:  boxes,
		RefLines: map[string]float64{
			"on-demand $48.00": r.s.OnDemandReferenceCost(),
			"min spot $5.40":   r.s.MinSpotReferenceCost(),
		},
	}
	if err := report.WriteSVG(f, panel); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// illustration renders a Figure 1/3 style run chart.
func (r runner) illustration(build func() (*experiment.Illustration, error)) error {
	ill, err := build()
	if err != nil {
		return err
	}
	if err := report.RunChart(os.Stdout, ill.Cfg, ill.Res, ill.Bid, 76); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func (r runner) fig2() error {
	res, err := r.s.Fig2(experiment.RegimeHigh, 5*24*trace.Hour, 0)
	if err != nil {
		return err
	}
	if err := report.Fig2(os.Stdout, res); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func (r runner) varAnalysis() error {
	res, err := r.s.VarAnalysis(6)
	if err != nil {
		return err
	}
	if err := report.Var(os.Stdout, res); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func (r runner) fig4() error {
	for _, regime := range []string{experiment.RegimeLow, experiment.RegimeHigh} {
		for _, slack := range experiment.Slacks {
			cell, err := r.s.Fig4(regime, slack, r.tc, nil)
			if err != nil {
				return err
			}
			if err := report.Fig4(os.Stdout, cell); err != nil {
				return err
			}
			var labels []string
			var boxes []stats.Box
			for _, kind := range experiment.SinglePolicies {
				for _, bid := range cell.Bids {
					labels = append(labels, fmt.Sprintf("%s@%.2f", kind, bid))
					boxes = append(boxes, cell.Singles[kind][bid])
				}
			}
			for _, bid := range cell.Bids {
				labels = append(labels, fmt.Sprintf("redundancy@%.2f", bid))
				boxes = append(boxes, cell.BestRedundant[bid])
			}
			base := fmt.Sprintf("fig4_%s_slack%.0f_tc%d", regime, slack*100, r.tc)
			if err := r.writeCSV(base+".csv", labels, boxes); err != nil {
				return err
			}
			title := fmt.Sprintf("Figure 4 — %s volatility, slack %.0f%%, t_c=%ds", regime, slack*100, r.tc)
			if err := r.writeSVG(base+".svg", title, labels, boxes); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r runner) table(tc int64) error {
	rows, err := r.s.Table(tc)
	if err != nil {
		return err
	}
	if err := report.BestPolicyTable(os.Stdout, tc, rows); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func (r runner) fig5() error {
	cells, err := r.s.Fig5All()
	if err != nil {
		return err
	}
	for _, cell := range cells {
		if err := report.Fig5(os.Stdout, cell); err != nil {
			return err
		}
		base := fmt.Sprintf("fig5_%s_slack%.0f_tc%d", cell.Regime, cell.Slack*100, cell.Tc)
		labels := []string{"adaptive", "periodic", "markov-daly", "redundancy"}
		boxes := []stats.Box{cell.Adaptive, cell.Periodic, cell.MarkovDaly, cell.BestRedundant}
		if err := r.writeCSV(base+".csv", labels, boxes); err != nil {
			return err
		}
		title := fmt.Sprintf("Figure 5 — %s volatility, slack %.0f%%, t_c=%ds", cell.Regime, cell.Slack*100, cell.Tc)
		if err := r.writeSVG(base+".svg", title, labels, boxes); err != nil {
			return err
		}
	}
	return nil
}

func (r runner) fig6() error {
	cells, err := r.s.Fig6All()
	if err != nil {
		return err
	}
	for _, cell := range cells {
		if err := report.Fig6(os.Stdout, cell); err != nil {
			return err
		}
		var labels []string
		var boxes []stats.Box
		for _, l := range experiment.Fig6Thresholds() {
			labels = append(labels, "large-bid-"+experiment.ThresholdLabel(l))
			boxes = append(boxes, cell.LargeBid[l])
		}
		labels = append(labels, "adaptive")
		boxes = append(boxes, cell.Adaptive)
		base := fmt.Sprintf("fig6_%s_slack%.0f_tc%d", cell.Regime, cell.Slack*100, cell.Tc)
		if err := r.writeCSV(base+".csv", labels, boxes); err != nil {
			return err
		}
		title := fmt.Sprintf("Figure 6 — %s volatility, slack %.0f%%, t_c=%ds", cell.Regime, cell.Slack*100, cell.Tc)
		if err := r.writeSVG(base+".svg", title, labels, boxes); err != nil {
			return err
		}
	}
	return nil
}

// convergence reports how the cost median stabilises as experiment
// windows accumulate — the methodology behind the 80-window tiling.
func (r runner) convergence() error {
	fmt.Println("Window-count convergence — periodic @ $0.81, high volatility, 15% slack")
	counts := []int{5, 10, 20, 40, 80}
	pts, err := r.s.Convergence(experiment.RegimeHigh, 0.15, 300, experiment.KindPeriodic, 0.81, counts)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Windows),
			fmt.Sprintf("%.2f", p.Median),
			fmt.Sprintf("%.2f", p.IQR),
		})
	}
	if err := report.Table(os.Stdout, []string{"windows", "median $", "IQR $"}, rows); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// yearBound reproduces the §7.2.1 bounded-cost claim over the full
// 12-month composite trace.
func (r runner) yearBound() error {
	res, err := r.s.YearBound(r.s.Windows, 0.15, 300)
	if err != nil {
		return err
	}
	fmt.Printf("12-month bounded-cost check — Adaptive across %d windows spanning the year\n", res.Windows)
	fmt.Printf("cost: median $%.2f, worst $%.2f = %.2fx on-demand (paper: never > 1.20x)\n",
		res.Costs.Median, res.Costs.Max, res.WorstOverOnDemand)
	fmt.Printf("deadlines missed: %d (the guard guarantees 0)\n\n", res.DeadlinesMissed)
	return nil
}

// oracle reports how close Adaptive gets to the clairvoyant lower
// bound (an analysis beyond the paper).
func (r runner) oracle() error {
	fmt.Println("Clairvoyant oracle gap — Adaptive cost / hindsight-optimal lower bound")
	var rows [][]string
	for _, regime := range []string{experiment.RegimeLow, experiment.RegimeHigh} {
		for _, slack := range experiment.Slacks {
			bounds, err := r.s.OracleBounds(regime, slack)
			if err != nil {
				return err
			}
			cell, err := r.s.Fig5(regime, slack, 300)
			if err != nil {
				return err
			}
			samples := cell.AdaptiveSamples()
			ratios := make([]float64, 0, len(samples))
			for i, c := range samples {
				if i < len(bounds) && bounds[i] > 0 {
					ratios = append(ratios, c/bounds[i])
				}
			}
			rows = append(rows, []string{
				regime,
				fmt.Sprintf("%.0f%%", slack*100),
				fmt.Sprintf("%.2f", stats.Quantile(bounds, 0.5)),
				fmt.Sprintf("%.2f", cell.Adaptive.Median),
				fmt.Sprintf("%.2fx", stats.Quantile(ratios, 0.5)),
				fmt.Sprintf("%.2fx", stats.Quantile(ratios, 1.0)),
			})
		}
	}
	if err := report.Table(os.Stdout, []string{"volatility", "slack", "oracle median $", "adaptive median $", "median gap", "worst gap"}, rows); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func (r runner) headline() error {
	h, err := r.s.Headline()
	if err != nil {
		return err
	}
	return report.HeadlineReport(os.Stdout, h)
}
