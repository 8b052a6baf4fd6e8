package experiment

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tracegen"
)

// Fig6Thresholds are the Large-bid cost-control thresholds of Figure 6:
// from the lowest observed price to the highest ($20.02, labelled Max),
// plus the thresholdless Naive variant (+Inf).
func Fig6Thresholds() []float64 {
	return []float64{0.27, 0.81, 2.40, tracegen.MaxObservedSpike, math.Inf(1)}
}

// ThresholdLabel renders a threshold the way the figure does.
func ThresholdLabel(l float64) string {
	if math.IsInf(l, 1) {
		return "Naive"
	}
	if l == tracegen.MaxObservedSpike {
		return "Max"
	}
	return fmt.Sprintf("%.2f", l)
}

// Fig6Cell holds one Figure 6 panel: Large-bid at each threshold
// against Adaptive, for one (volatility, slack, t_c) combination. The
// low-volatility panel uses the spike-bearing window (the paper's March
// 2013 window contained the $20.02 spike that produced Large-bid's
// $183.75 worst case).
type Fig6Cell struct {
	Regime string
	Slack  float64
	Tc     int64
	// LargeBid maps each threshold to its box; Max costs are the
	// circles of the figure (box.Max).
	LargeBid map[float64]stats.Box
	// Adaptive is the comparison box.
	Adaptive                stats.Box
	OnDemandRef, MinSpotRef float64
}

// Fig6 reproduces one Figure 6 panel.
func (s *Suite) Fig6(regime string, slack float64, tc int64) (*Fig6Cell, error) {
	set := s.Regime(regime)
	windows := s.windowsFor(set, slack)
	if len(windows) == 0 {
		return nil, fmt.Errorf("experiment: regime %q cannot host any window at slack %g", regime, slack)
	}

	thresholds := Fig6Thresholds()
	lb := map[float64][]float64{}
	for _, l := range thresholds {
		lb[l] = make([]float64, len(windows))
	}
	adaptive := make([]float64, len(windows))

	var tasks []task
	for wi, w := range windows {
		for _, l := range thresholds {
			tasks = append(tasks, task{
				cfg:   s.Config(w, slack, tc),
				strat: core.PolicySpec{Family: core.FamilyLargeBid, L: l}.Static(core.LargeBidAmount, 1),
				out:   &lb[l][wi],
			})
		}
		tasks = append(tasks, task{
			cfg:   s.Config(w, slack, tc),
			strat: core.NewAdaptive(),
			out:   &adaptive[wi],
		})
	}
	if err := s.runTasks(tasks); err != nil {
		return nil, err
	}

	cell := &Fig6Cell{
		Regime: regime, Slack: slack, Tc: tc,
		LargeBid:    map[float64]stats.Box{},
		Adaptive:    stats.NewBox(adaptive),
		OnDemandRef: s.OnDemandReferenceCost(),
		MinSpotRef:  s.MinSpotReferenceCost(),
	}
	for _, l := range thresholds {
		cell.LargeBid[l] = stats.NewBox(lb[l])
	}
	return cell, nil
}

// Fig6All runs the Figure 6 panels for both volatility regimes across
// slacks and checkpoint costs; the low-volatility regime is the
// spike-bearing variant.
func (s *Suite) Fig6All() ([]*Fig6Cell, error) {
	var out []*Fig6Cell
	for _, regime := range []string{RegimeLowSpike, RegimeHigh} {
		for _, slack := range Slacks {
			for _, tc := range CheckpointCosts {
				cell, err := s.Fig6(regime, slack, tc)
				if err != nil {
					return nil, err
				}
				out = append(out, cell)
			}
		}
	}
	return out, nil
}
