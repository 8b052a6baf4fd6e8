package experiment

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// Fig5Bid is the bid the paper fixes for the Figure 5 comparison: $0.81
// "generally results in better median costs compared to other bids".
const Fig5Bid = 0.81

// Fig5Cell holds one panel of Figure 5: Adaptive against single-zone
// Periodic, single-zone Markov-Daly and best-case redundancy at B =
// $0.81, for one (volatility, slack, t_c) combination.
type Fig5Cell struct {
	Regime string
	Slack  float64
	Tc     int64
	// Adaptive is the box over windows.
	Adaptive stats.Box
	// Periodic and MarkovDaly merge the three zones, as in Figure 4.
	Periodic   stats.Box
	MarkovDaly stats.Box
	// BestRedundant is the per-window best case across the redundant
	// policy family.
	BestRedundant           stats.Box
	OnDemandRef, MinSpotRef float64
	// AdaptiveVsPeriodic is the Mann-Whitney comparison of the adaptive
	// and periodic cost samples: a small p-value with effect size below
	// 0.5 certifies that Adaptive's advantage in this cell is not
	// window-tiling noise.
	AdaptiveVsPeriodic stats.MannWhitneyResult

	adaptiveCosts []float64
}

// AdaptiveSamples exposes the raw adaptive costs.
func (c *Fig5Cell) AdaptiveSamples() []float64 { return c.adaptiveCosts }

// Fig5 reproduces one panel of Figure 5.
func (s *Suite) Fig5(regime string, slack float64, tc int64) (*Fig5Cell, error) {
	set := s.Regime(regime)
	windows := s.windowsFor(set, slack)
	if len(windows) == 0 {
		return nil, fmt.Errorf("experiment: regime %q cannot host any window at slack %g", regime, slack)
	}
	zones := make([]int, set.NumZones())
	for i := range zones {
		zones[i] = i
	}

	adaptive := make([]float64, len(windows))
	singles := map[string][]float64{
		KindPeriodic:   make([]float64, len(windows)*len(zones)),
		KindMarkovDaly: make([]float64, len(windows)*len(zones)),
	}
	redundant := map[string][]float64{}
	pols := map[string]core.PolicySpec{}
	for _, kind := range RedundantPolicies {
		redundant[kind] = make([]float64, len(windows))
		pols[kind] = mustPolicy(kind)
	}

	var tasks []task
	for wi, w := range windows {
		tasks = append(tasks, task{
			cfg:   s.Config(w, slack, tc),
			strat: core.NewAdaptive(),
			out:   &adaptive[wi],
		})
		for _, kind := range []string{KindPeriodic, KindMarkovDaly} {
			for zi := range zones {
				tasks = append(tasks, task{
					cfg:   s.Config(w, slack, tc),
					strat: core.SingleZone(pols[kind].New(), Fig5Bid, zones[zi]),
					out:   &singles[kind][zi*len(windows)+wi],
				})
			}
		}
		for _, kind := range RedundantPolicies {
			tasks = append(tasks, task{
				cfg:   s.Config(w, slack, tc),
				strat: core.Redundant(pols[kind].New(), Fig5Bid, zones),
				out:   &redundant[kind][wi],
			})
		}
	}
	if err := s.runTasks(tasks); err != nil {
		return nil, err
	}

	best := make([]float64, len(windows))
	for wi := range best {
		best[wi] = math.Inf(1)
		for _, kind := range RedundantPolicies {
			if c := redundant[kind][wi]; c < best[wi] {
				best[wi] = c
			}
		}
	}
	return &Fig5Cell{
		Regime: regime, Slack: slack, Tc: tc,
		Adaptive:           stats.NewBox(adaptive),
		Periodic:           stats.NewBox(singles[KindPeriodic]),
		MarkovDaly:         stats.NewBox(singles[KindMarkovDaly]),
		BestRedundant:      stats.NewBox(best),
		OnDemandRef:        s.OnDemandReferenceCost(),
		MinSpotRef:         s.MinSpotReferenceCost(),
		AdaptiveVsPeriodic: stats.MannWhitney(adaptive, singles[KindPeriodic]),
		adaptiveCosts:      adaptive,
	}, nil
}

// Fig5All runs every Figure 5 panel: 2 volatilities × 2 slacks × 2
// checkpoint costs, in the paper's (a)–(h) order.
func (s *Suite) Fig5All() ([]*Fig5Cell, error) {
	var out []*Fig5Cell
	for _, regime := range []string{RegimeLow, RegimeHigh} {
		for _, slack := range Slacks {
			for _, tc := range CheckpointCosts {
				cell, err := s.Fig5(regime, slack, tc)
				if err != nil {
					return nil, err
				}
				out = append(out, cell)
			}
		}
	}
	return out, nil
}
