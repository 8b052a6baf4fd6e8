package experiment

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/vecar"
)

// Fig2Result reproduces Figure 2: per-zone up/down intervals over a
// 15-hour window at a fixed bid, plus the combined availability bar.
type Fig2Result struct {
	Bid   float64
	Start int64
	End   int64
	// ZoneIntervals maps zone name to its up intervals.
	ZoneIntervals map[string][]trace.Interval
	// ZoneUpFraction maps zone name to its availability.
	ZoneUpFraction map[string]float64
	// Combined is the union availability bar.
	Combined []trace.Interval
	// CombinedUpFraction is the union availability.
	CombinedUpFraction float64
}

// Fig2 computes the availability view over a 15 h window starting at
// the given offset into the regime trace. A bid ≤ 0 selects the
// regime's median price, which yields the mixed up/down structure the
// figure illustrates.
func (s *Suite) Fig2(regime string, offset int64, bid float64) (*Fig2Result, error) {
	set := s.Regime(regime)
	const span = 15 * trace.Hour
	start := set.Start() + offset
	if start+span > set.End() {
		return nil, fmt.Errorf("experiment: 15 h window at offset %d exceeds the trace", offset)
	}
	win := set.Slice(start, start+span)
	if bid <= 0 {
		bid = win.Series[0].Quantile(0.5)
	}
	out := &Fig2Result{
		Bid: bid, Start: win.Start(), End: win.End(),
		ZoneIntervals:      map[string][]trace.Interval{},
		ZoneUpFraction:     map[string]float64{},
		Combined:           win.CombinedUpIntervals(bid),
		CombinedUpFraction: win.CombinedUpFraction(bid),
	}
	for _, series := range win.Series {
		out.ZoneIntervals[series.Zone] = series.UpIntervals(bid)
		out.ZoneUpFraction[series.Zone] = series.UpFraction(bid)
	}
	return out, nil
}

// VarResult reproduces the §3.1 analysis: a VAR with AIC-selected lag
// over a long trace, summarised as same-zone versus cross-zone
// dependence, plus Granger-causality tests of the cross-zone links.
// The paper's wording maps directly: "there is some statistical
// significance in the dependencies across zones" (Granger p-values),
// "[but] the size of the effect is consistently 1-2 orders of magnitude
// smaller than within a zone" (the dependence ratio).
type VarResult struct {
	Lag        int
	Obs        int
	Dependence vecar.Dependence
	// Granger holds the cross-zone causality tests at the selected lag.
	Granger []vecar.GrangerResult
	// SignificantCross counts cross-zone links significant at α = 0.05.
	SignificantCross int
}

// VarAnalysis fits the VAR to a year-long composite trace (as the paper
// does over its 12-month history) and reports the dependence summary.
// The lag fits and the Granger regressions fan out over the suite's
// workers.
func (s *Suite) VarAnalysis(maxLag int) (*VarResult, error) {
	year := tracegen.Year(s.Seed)
	series := make([][]float64, year.NumZones())
	for i, zs := range year.Series {
		series[i] = zs.Prices
	}
	m, err := vecar.SelectLag(series, maxLag, s.Workers)
	if err != nil {
		return nil, err
	}
	granger, err := vecar.GrangerMatrix(series, m.Lag, s.Workers)
	if err != nil {
		return nil, err
	}
	res := &VarResult{Lag: m.Lag, Obs: m.Obs, Dependence: m.Dependence(), Granger: granger}
	for _, g := range granger {
		if g.Significant(0.05) {
			res.SignificantCross++
		}
	}
	return res, nil
}
