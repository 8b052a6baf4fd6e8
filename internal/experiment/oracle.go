package experiment

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// OracleLowerBound computes a clairvoyant lower bound on the cost of
// finishing `work` seconds of computation within the window's first
// `deadline` seconds: with perfect knowledge of future prices, ignoring
// checkpoint/restart overheads and queuing delay, a scheduler needs at
// least ⌈work/hour⌉ disjoint instance-hours, pays each at its
// hour-start price, and may pick the cheapest zone for each hour. The
// optimal choice of disjoint hours is a small dynamic program over the
// 5-minute grid.
//
// No online policy can beat this bound (overheads only add cost and
// hour-start pricing is exact), so it anchors how close Adaptive gets
// to hindsight-optimal in EXPERIMENTS.md.
func OracleLowerBound(run *trace.Set, deadline, work int64) (float64, error) {
	if work <= 0 {
		return 0, nil
	}
	step := run.Step()
	if deadline > run.Duration() {
		deadline = run.Duration()
	}
	hoursNeeded := int((work + trace.Hour - 1) / trace.Hour)
	steps := int(deadline / step)
	stepsPerHour := int(trace.Hour / step)
	if steps < hoursNeeded*stepsPerHour {
		return 0, fmt.Errorf("experiment: deadline %d cannot hold %d instance-hours", deadline, hoursNeeded)
	}

	// minPrice[t]: the cheapest zone's price at grid point t (a spot
	// instance started there is billed that price for the next hour).
	minPrice := make([]float64, steps)
	for t := 0; t < steps; t++ {
		at := run.Start() + int64(t)*step
		best := math.Inf(1)
		for _, s := range run.Series {
			if p := s.PriceAt(at); p < best {
				best = p
			}
		}
		minPrice[t] = best
	}

	// dp[j] = min cost of j completed hours by the current grid point.
	const inf = math.MaxFloat64
	prev := make([][]float64, steps+1)
	for t := range prev {
		prev[t] = make([]float64, hoursNeeded+1)
		for j := range prev[t] {
			prev[t][j] = inf
		}
		prev[t][0] = 0
	}
	for t := 1; t <= steps; t++ {
		for j := 1; j <= hoursNeeded; j++ {
			// Idle through this step.
			best := prev[t-1][j]
			// Or finish an hour that started stepsPerHour ago.
			if t >= stepsPerHour && prev[t-stepsPerHour][j-1] < inf {
				if c := prev[t-stepsPerHour][j-1] + minPrice[t-stepsPerHour]; c < best {
					best = c
				}
			}
			prev[t][j] = best
		}
	}
	out := prev[steps][hoursNeeded]
	if out >= inf {
		return 0, fmt.Errorf("experiment: no feasible oracle schedule")
	}
	return out, nil
}

// OracleBounds computes the clairvoyant bound for every window of a
// regime/slack cell.
func (s *Suite) OracleBounds(regime string, slack float64) ([]float64, error) {
	windows := s.windowsFor(s.Regime(regime), slack)
	if len(windows) == 0 {
		return nil, fmt.Errorf("experiment: no windows for %s at slack %g", regime, slack)
	}
	out := make([]float64, len(windows))
	for i, w := range windows {
		lb, err := OracleLowerBound(w.Run, s.Deadline(slack), s.Work)
		if err != nil {
			return nil, err
		}
		out[i] = lb
	}
	return out, nil
}
