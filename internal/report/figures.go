package report

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/experiment"
	"repro/internal/stats"
	"repro/internal/trace"
)

// scaleHi returns a plot upper bound covering all boxes and references.
func scaleHi(refs []float64, boxes ...stats.Box) float64 {
	hi := 0.0
	for _, r := range refs {
		if r > hi {
			hi = r
		}
	}
	for _, b := range boxes {
		if b.N > 0 && !math.IsNaN(b.Max) && b.Max > hi {
			hi = b.Max
		}
	}
	return hi * 1.05
}

// Fig2 renders the availability bars of Figure 2.
func Fig2(w io.Writer, r *experiment.Fig2Result) error {
	const width = 72
	span := r.End - r.Start
	fmt.Fprintf(w, "Figure 2 — zone availability over %d h at bid $%.2f\n", span/trace.Hour, r.Bid)
	bar := func(intervals []trace.Interval) string {
		out := make([]rune, width)
		for i := range out {
			out[i] = '.'
		}
		for _, iv := range intervals {
			lo := int((iv.Start - r.Start) * int64(width) / span)
			hi := int((iv.End - r.Start) * int64(width) / span)
			if hi > width {
				hi = width
			}
			for i := lo; i < hi; i++ {
				out[i] = '#'
			}
		}
		return string(out)
	}
	fmt.Fprintf(w, "%-12s %s %5.1f%%\n", "combined", bar(r.Combined), 100*r.CombinedUpFraction)
	zones := make([]string, 0, len(r.ZoneIntervals))
	for z := range r.ZoneIntervals {
		zones = append(zones, z)
	}
	sort.Strings(zones)
	for _, z := range zones {
		fmt.Fprintf(w, "%-12s %s %5.1f%%\n", z, bar(r.ZoneIntervals[z]), 100*r.ZoneUpFraction[z])
	}
	return nil
}

// Var renders the §3.1 dependence analysis.
func Var(w io.Writer, r *experiment.VarResult) error {
	fmt.Fprintf(w, "§3.1 — vector auto-regression (AIC-selected lag %d over %d observations)\n", r.Lag, r.Obs)
	fmt.Fprintf(w, "mean |same-zone| coefficient:  %.4f\n", r.Dependence.SelfMean)
	fmt.Fprintf(w, "mean |cross-zone| coefficient: %.4f\n", r.Dependence.CrossMean)
	fmt.Fprintf(w, "self/cross ratio:              %.1fx (paper: 1-2 orders of magnitude)\n", r.Dependence.Ratio)
	if len(r.Granger) > 0 {
		fmt.Fprintf(w, "Granger causality:             %d/%d cross-zone links significant at α=0.05\n",
			r.SignificantCross, len(r.Granger))
		fmt.Fprintf(w, "                               (the paper: cross-zone dependencies carry some\n")
		fmt.Fprintf(w, "                               statistical significance despite their small effects)\n")
	}
	return nil
}

// Fig4 renders one Figure 4 panel.
func Fig4(w io.Writer, c *experiment.Fig4Cell) error {
	fmt.Fprintf(w, "Figure 4 — %s volatility, slack %.0f%%, t_c=%ds (cost per instance, $)\n",
		c.Regime, c.Slack*100, c.Tc)
	const width = 44
	hi := scaleHi([]float64{c.OnDemandRef}, fig4Panel(c).Boxes...)

	var rows [][]string
	add := func(label string, bid float64, b stats.Box) {
		cells := append([]string{label, fmt.Sprintf("%.2f", bid)}, BoxCells(b)...)
		cells = append(cells, AsciiBox(b, 0, hi, width))
		rows = append(rows, cells)
	}
	for _, kind := range experiment.SinglePolicies {
		for _, bid := range c.Bids {
			add(kind, bid, c.Singles[kind][bid])
		}
	}
	for _, bid := range c.Bids {
		add("redundancy*", bid, c.BestRedundant[bid])
	}
	headers := append([]string{"policy", "bid"}, BoxHeaders()...)
	headers = append(headers, fmt.Sprintf("0 .. $%.0f", hi))
	if err := Table(w, headers, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "references: on-demand $%.2f [%s]  min-spot $%.2f\n",
		c.OnDemandRef, Gauge(c.OnDemandRef, 0, hi, width, '|'), c.MinSpotRef)
	mw := c.RedundancySignificance
	fmt.Fprintf(w, "redundancy vs best single @ $0.81: Mann-Whitney p=%.4f, P(redundant < single)=%.2f\n\n",
		mw.P, 1-mw.EffectSize)
	return nil
}

// BestPolicyTable renders Table 2 or Table 3.
func BestPolicyTable(w io.Writer, tc int64, rows []experiment.BestPolicy) error {
	fmt.Fprintf(w, "Table (t_c = %d s) — optimal policy per cell\n", tc)
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Regime,
			fmt.Sprintf("%.0f%%", r.Slack*100),
			fmt.Sprintf("%s (bid=$%.2f)", r.Policy, r.Bid),
			fmt.Sprintf("%.2f", r.Median),
			fmt.Sprintf("%s (%.2f)", r.RunnerUp, r.RunnerUpMedian),
		})
	}
	return Table(w, []string{"volatility", "slack", "best policy", "median $", "runner-up"}, out)
}

// Fig5 renders one Figure 5 panel.
func Fig5(w io.Writer, c *experiment.Fig5Cell) error {
	fmt.Fprintf(w, "Figure 5 — %s volatility, slack %.0f%%, t_c=%ds at B=$%.2f (cost per instance, $)\n",
		c.Regime, c.Slack*100, c.Tc, experiment.Fig5Bid)
	const width = 44
	hi := scaleHi([]float64{c.OnDemandRef}, c.Adaptive, c.Periodic, c.MarkovDaly, c.BestRedundant)
	var rows [][]string
	add := func(label string, b stats.Box) {
		cells := append([]string{label}, BoxCells(b)...)
		cells = append(cells, AsciiBox(b, 0, hi, width))
		rows = append(rows, cells)
	}
	add("adaptive", c.Adaptive)
	add("periodic", c.Periodic)
	add("markov-daly", c.MarkovDaly)
	add("redundancy*", c.BestRedundant)
	headers := append([]string{"policy"}, BoxHeaders()...)
	headers = append(headers, fmt.Sprintf("0 .. $%.0f", hi))
	if err := Table(w, headers, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "references: on-demand $%.2f  min-spot $%.2f\n", c.OnDemandRef, c.MinSpotRef)
	mw := c.AdaptiveVsPeriodic
	fmt.Fprintf(w, "adaptive vs periodic: Mann-Whitney p=%.4f, P(adaptive < periodic)=%.2f\n\n",
		mw.P, 1-mw.EffectSize)
	return nil
}

// Fig6 renders one Figure 6 panel.
func Fig6(w io.Writer, c *experiment.Fig6Cell) error {
	fmt.Fprintf(w, "Figure 6 — %s volatility, slack %.0f%%, t_c=%ds (cost per instance, $)\n",
		c.Regime, c.Slack*100, c.Tc)
	const width = 44
	hi := scaleHi([]float64{c.OnDemandRef}, fig6Panel(c).Boxes...)
	var rows [][]string
	for _, l := range experiment.Fig6Thresholds() {
		b := c.LargeBid[l]
		cells := append([]string{"large-bid L=" + experiment.ThresholdLabel(l)}, BoxCells(b)...)
		cells = append(cells, AsciiBox(b, 0, hi, width))
		rows = append(rows, cells)
	}
	cells := append([]string{"adaptive"}, BoxCells(c.Adaptive)...)
	cells = append(cells, AsciiBox(c.Adaptive, 0, hi, width))
	rows = append(rows, cells)
	headers := append([]string{"policy"}, BoxHeaders()...)
	headers = append(headers, fmt.Sprintf("0 .. $%.0f", hi))
	if err := Table(w, headers, rows); err != nil {
		return err
	}
	fmt.Fprintf(w, "references: on-demand $%.2f  min-spot $%.2f (max column = the figure's circles)\n\n",
		c.OnDemandRef, c.MinSpotRef)
	return nil
}

// HeadlineReport renders the paper-vs-measured headline claims.
func HeadlineReport(w io.Writer, h *experiment.Headline) error {
	rows := [][]string{
		{"Adaptive vs on-demand", "up to 7.0x cheaper", fmt.Sprintf("%.1fx cheaper (%s)", h.AdaptiveVsOnDemand, h.AdaptiveVsOnDemandCell)},
		{"Adaptive vs best single-zone", "up to 44% cheaper", fmt.Sprintf("%.0f%% cheaper (%s)", h.AdaptiveVsBestSingle*100, h.AdaptiveVsBestSingleCell)},
		{"Redundancy vs Periodic (high vol, 15% slack)", "23.9% cheaper", fmt.Sprintf("%.1f%% cheaper", h.RedundancyVsPeriodic*100)},
		{"Adaptive worst case vs on-demand", "never > 1.20x", fmt.Sprintf("%.2fx (%s)", h.AdaptiveWorstOverOnDemand, h.AdaptiveWorstOverOnDemandCell)},
	}
	return Table(w, []string{"claim", "paper", "measured"}, rows)
}
