package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// ConvergencePoint is one step of the window-count methodology study:
// the cost median over the first Windows experiment windows.
type ConvergencePoint struct {
	Windows int
	Median  float64
	IQR     float64
}

// Convergence reports how a policy's cost median stabilises as windows
// accumulate — the methodology behind choosing 80 windows: enough that
// the median stops moving. It runs the cell once at the suite's window
// count and evaluates prefixes, so the work is paid once.
func (s *Suite) Convergence(regime string, slack float64, tc int64, kind string, bid float64, counts []int) ([]ConvergencePoint, error) {
	set := s.Regime(regime)
	windows := s.windowsFor(set, slack)
	if len(windows) == 0 {
		return nil, fmt.Errorf("experiment: no windows for %s at slack %g", regime, slack)
	}
	costs := make([]float64, len(windows))
	pol := mustPolicy(kind)
	var tasks []task
	for wi, w := range windows {
		tasks = append(tasks, task{
			cfg:   s.Config(w, slack, tc),
			strat: core.SingleZone(pol.New(), bid, 0),
			out:   &costs[wi],
		})
	}
	if err := s.runTasks(tasks); err != nil {
		return nil, err
	}
	var out []ConvergencePoint
	for _, c := range counts {
		if c <= 0 || c > len(costs) {
			continue
		}
		box := stats.NewBox(costs[:c])
		out = append(out, ConvergencePoint{Windows: c, Median: box.Median, IQR: box.IQR()})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: no valid prefix counts in %v (have %d windows)", counts, len(costs))
	}
	return out, nil
}
