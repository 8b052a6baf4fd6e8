package report

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/experiment"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Step is one experiment of the paper suite, split into its driver
// calls (Compute) and its rendering (Section.Render), so a caller can
// time the two apart.
type Step struct {
	// Name is the experiment's name on the paperfigs command line.
	Name string
	// MinWindows is the smallest suite window count the step can report
	// at. The whole suite skips the step below it; run alone, the step
	// fails with its driver's error.
	MinWindows int
	// Compute runs the step's experiment drivers.
	Compute func(s *experiment.Suite) (*Section, error)
}

// Section is a computed step, ready to print.
type Section struct {
	// Render writes the step's text.
	Render func(w io.Writer) error
	// Panels are the step's labelled boxplots, one per figure panel
	// (Figures 4–6 only).
	Panels []Panel
}

// Panel is one figure panel under the file name its CSV and SVG take.
type Panel struct {
	// Name is the file base name, e.g. fig4_low_slack15_tc300.
	Name string
	SVGPanel
}

// convergenceCounts are the window-count prefixes the convergence
// step reports.
var convergenceCounts = []int{5, 10, 20, 40, 80}

// SuiteSteps lists the suite's steps in `paperfigs all` order; tc is
// Figure 4's checkpoint cost in seconds (the paper plots 300 s).
func SuiteSteps(tc int64) []Step {
	type suite = experiment.Suite
	return []Step{
		{Name: "fig1", Compute: textStep((*suite).Fig1, runChart)},
		{Name: "fig3", Compute: textStep((*suite).Fig3, runChart)},
		{Name: "fig2", Compute: textStep(func(s *suite) (*experiment.Fig2Result, error) {
			return s.Fig2(experiment.RegimeHigh, 5*24*trace.Hour, 0)
		}, Fig2)},
		{Name: "var", Compute: textStep(func(s *suite) (*experiment.VarResult, error) { return s.VarAnalysis(6) }, Var)},
		{Name: "fig4", Compute: panelStep(func(s *suite) ([]*experiment.Fig4Cell, error) { return s.Fig4All(tc) }, Fig4, fig4Panel)},
		{Name: "table2", Compute: tableStep(300)},
		{Name: "table3", Compute: tableStep(900)},
		{Name: "fig5", Compute: panelStep((*suite).Fig5All, Fig5, fig5Panel)},
		{Name: "fig6", Compute: panelStep((*suite).Fig6All, Fig6, fig6Panel)},
		{Name: "headline", Compute: step((*suite).Headline, HeadlineReport)},
		{Name: "oracle", Compute: textStep(oracleRows, func(w io.Writer, rows [][]string) error {
			fmt.Fprintln(w, "Clairvoyant oracle gap — Adaptive cost / hindsight-optimal lower bound")
			return Table(w, []string{"volatility", "slack", "oracle median $", "adaptive median $", "median gap", "worst gap"}, rows)
		})},
		{Name: "convergence", MinWindows: convergenceCounts[0], Compute: textStep(func(s *suite) ([]experiment.ConvergencePoint, error) {
			return s.Convergence(experiment.RegimeHigh, 0.15, 300, experiment.KindPeriodic, 0.81, convergenceCounts)
		}, convergence)},
		{Name: "yearbound", Compute: textStep(func(s *suite) (*experiment.YearBoundResult, error) {
			return s.YearBound(s.Windows, 0.15, 300)
		}, yearBound)},
	}
}

// SelectSteps returns the steps `paperfigs name` runs over a suite of
// the given window count: for "all", every step that count can report;
// otherwise the one step of that name.
func SelectSteps(steps []Step, name string, windows int) ([]Step, error) {
	var out []Step
	for _, st := range steps {
		if name == "all" && windows >= st.MinWindows || st.Name == name {
			out = append(out, st)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
	return out, nil
}

// RunSteps computes each step on the suite in order and writes its text
// to w. It returns the steps' panels in order.
func RunSteps(w io.Writer, s *experiment.Suite, steps []Step) ([]Panel, error) {
	var panels []Panel
	for _, st := range steps {
		sec, err := st.Compute(s)
		if err == nil {
			err = sec.Render(w)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.Name, err)
		}
		panels = append(panels, sec.Panels...)
	}
	return panels, nil
}

// step is a Compute that runs compute and renders its result.
func step[T any](compute func(*experiment.Suite) (T, error), render func(io.Writer, T) error) func(*experiment.Suite) (*Section, error) {
	return panelStep(func(s *experiment.Suite) ([]T, error) {
		v, err := compute(s)
		return []T{v}, err
	}, render, nil)
}

// textStep is step with a blank line after the text.
func textStep[T any](compute func(*experiment.Suite) (T, error), render func(io.Writer, T) error) func(*experiment.Suite) (*Section, error) {
	return step(compute, func(w io.Writer, v T) error {
		if err := render(w, v); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	})
}

// panelStep is a Compute that runs compute, renders each cell in turn
// and, when panel is set, draws one panel per cell.
func panelStep[C any](compute func(*experiment.Suite) ([]C, error), render func(io.Writer, C) error, panel func(C) Panel) func(*experiment.Suite) (*Section, error) {
	return func(s *experiment.Suite) (*Section, error) {
		cells, err := compute(s)
		if err != nil {
			return nil, err
		}
		sec := &Section{Render: func(w io.Writer) error {
			for _, c := range cells {
				if err := render(w, c); err != nil {
					return err
				}
			}
			return nil
		}}
		for i := 0; panel != nil && i < len(cells); i++ {
			sec.Panels = append(sec.Panels, panel(cells[i]))
		}
		return sec, nil
	}
}

func runChart(w io.Writer, ill *experiment.Illustration) error {
	return RunChart(w, ill.Cfg, ill.Res, ill.Bid, 76)
}

func tableStep(tc int64) func(*experiment.Suite) (*Section, error) {
	return textStep(func(s *experiment.Suite) ([]experiment.BestPolicy, error) { return s.Table(tc) },
		func(w io.Writer, rows []experiment.BestPolicy) error { return BestPolicyTable(w, tc, rows) })
}

// newPanel labels a figure panel with the cell's reference lines.
func newPanel(fig int, regime string, slack float64, tc int64, onDemand, minSpot float64, labels []string, boxes []stats.Box) Panel {
	return Panel{
		Name: fmt.Sprintf("fig%d_%s_slack%.0f_tc%d", fig, regime, slack*100, tc),
		SVGPanel: SVGPanel{
			Title:  fmt.Sprintf("Figure %d — %s volatility, slack %.0f%%, t_c=%ds", fig, regime, slack*100, tc),
			Labels: labels,
			Boxes:  boxes,
			RefLines: []RefLine{
				{fmt.Sprintf("on-demand $%.2f", onDemand), onDemand},
				{fmt.Sprintf("min spot $%.2f", minSpot), minSpot},
			},
		},
	}
}

func fig4Panel(c *experiment.Fig4Cell) Panel {
	var labels []string
	var boxes []stats.Box
	for _, kind := range experiment.SinglePolicies {
		for _, bid := range c.Bids {
			labels = append(labels, fmt.Sprintf("%s@%.2f", kind, bid))
			boxes = append(boxes, c.Singles[kind][bid])
		}
	}
	for _, bid := range c.Bids {
		labels = append(labels, fmt.Sprintf("redundancy@%.2f", bid))
		boxes = append(boxes, c.BestRedundant[bid])
	}
	return newPanel(4, c.Regime, c.Slack, c.Tc, c.OnDemandRef, c.MinSpotRef, labels, boxes)
}

func fig5Panel(c *experiment.Fig5Cell) Panel {
	return newPanel(5, c.Regime, c.Slack, c.Tc, c.OnDemandRef, c.MinSpotRef,
		[]string{"adaptive", "periodic", "markov-daly", "redundancy"},
		[]stats.Box{c.Adaptive, c.Periodic, c.MarkovDaly, c.BestRedundant})
}

func fig6Panel(c *experiment.Fig6Cell) Panel {
	var labels []string
	var boxes []stats.Box
	for _, l := range experiment.Fig6Thresholds() {
		labels = append(labels, "large-bid-"+experiment.ThresholdLabel(l))
		boxes = append(boxes, c.LargeBid[l])
	}
	return newPanel(6, c.Regime, c.Slack, c.Tc, c.OnDemandRef, c.MinSpotRef, append(labels, "adaptive"), append(boxes, c.Adaptive))
}

// oracleRows measures how close Adaptive gets to the clairvoyant lower
// bound (an analysis beyond the paper).
func oracleRows(s *experiment.Suite) ([][]string, error) {
	var rows [][]string
	for _, regime := range []string{experiment.RegimeLow, experiment.RegimeHigh} {
		for _, slack := range experiment.Slacks {
			bounds, err := s.OracleBounds(regime, slack)
			if err != nil {
				return nil, err
			}
			cell, err := s.Fig5(regime, slack, 300)
			if err != nil {
				return nil, err
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
	return rows, nil
}

// convergence reports how the cost median stabilises as experiment
// windows accumulate — the methodology behind the 80-window tiling.
func convergence(w io.Writer, pts []experiment.ConvergencePoint) error {
	fmt.Fprintln(w, "Window-count convergence — periodic @ $0.81, high volatility, 15% slack")
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{strconv.Itoa(p.Windows), fmt.Sprintf("%.2f", p.Median), fmt.Sprintf("%.2f", p.IQR)})
	}
	return Table(w, []string{"windows", "median $", "IQR $"}, rows)
}

// yearBound reports the §7.2.1 bounded-cost claim over the full
// 12-month composite trace.
func yearBound(w io.Writer, res *experiment.YearBoundResult) error {
	fmt.Fprintf(w, "12-month bounded-cost check — Adaptive across %d windows spanning the year\n", res.Windows)
	fmt.Fprintf(w, "cost: median $%.2f, worst $%.2f = %.2fx on-demand (paper: never > 1.20x)\n",
		res.Costs.Median, res.Costs.Max, res.WorstOverOnDemand)
	_, err := fmt.Fprintf(w, "deadlines missed: %d (the guard guarantees 0)\n", res.DeadlinesMissed)
	return err
}
