package experiment

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// YearBoundResult reproduces the paper's §7.2.1 bounded-cost claim over
// the full 12-month history: "total cost never exceeds 20% above the
// on-demand cost for our experiments involving 12-month data".
type YearBoundResult struct {
	// Windows is the number of experiment windows tiled across the year.
	Windows int
	// Costs summarises Adaptive's cost across them.
	Costs stats.Box
	// WorstOverOnDemand is max cost divided by the on-demand cost.
	WorstOverOnDemand float64
	// OnDemandRef is the on-demand cost.
	OnDemandRef float64
	// DeadlinesMissed must be zero (the guard's guarantee).
	DeadlinesMissed int
}

// YearBound tiles windows across the 12-month composite trace — calm,
// moderate and volatile months plus the $20.02 spike — and runs the
// Adaptive strategy on each, measuring the worst cost relative to
// on-demand.
func (s *Suite) YearBound(windows int, slack float64, tc int64) (*YearBoundResult, error) {
	if windows <= 0 {
		return nil, fmt.Errorf("experiment: non-positive window count")
	}
	year := tracegen.Year(s.Seed)
	runLen := s.Deadline(slack) + 2*trace.Hour
	step := year.Step()
	lo := year.Start() + s.HistorySpan
	hi := year.End() - runLen
	if hi < lo {
		return nil, fmt.Errorf("experiment: year trace cannot host the deadline")
	}
	costs := make([]float64, windows)
	met := make([]bool, windows)
	var tasks []task
	for i := 0; i < windows; i++ {
		var off int64
		if windows > 1 {
			off = (hi - lo) * int64(i) / int64(windows-1)
		}
		start := (lo + off) / step * step
		w := trace.Window{
			Index:   i,
			Run:     year.Slice(start, start+runLen),
			History: year.Slice(start-s.HistorySpan, start),
		}
		tasks = append(tasks, task{
			cfg:   s.Config(w, slack, tc),
			strat: core.NewAdaptive(),
			out:   &costs[i],
			met:   &met[i],
		})
	}
	if err := s.runTasks(tasks); err != nil {
		return nil, err
	}
	missed := 0
	for _, ok := range met {
		if !ok {
			missed++
		}
	}
	od := s.OnDemandReferenceCost()
	box := stats.NewBox(costs)
	return &YearBoundResult{
		Windows:           windows,
		Costs:             box,
		WorstOverOnDemand: box.Max / od,
		OnDemandRef:       od,
		DeadlinesMissed:   missed,
	}, nil
}
