// Package markov implements the paper's Appendix B model: a Markov
// chain over discretised spot prices whose Chapman-Kolmogorov iteration
// yields the expected uptime E[T_u] of a spot instance at a given bid.
//
// The states are the distinct spot prices seen in a price history, the
// transition matrix is estimated from consecutive 5-minute samples, and
// the expected uptime propagates probability mass only through states at
// or below the bid (the instance survives) while accumulating the mass
// that crosses above the bid (the instance is terminated), weighted by
// the step at which it crosses (Equations 2 and 3).
package markov

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// Model is a fitted price Markov chain for one zone.
type Model struct {
	// States holds the distinct prices in increasing order.
	States []float64
	// Trans is the row-stochastic transition matrix: Trans[i][j] is the
	// probability of moving from state i to state j in one step.
	Trans [][]float64
	// Step is the chain's time step in seconds.
	Step int64
	// Horizon caps the Chapman-Kolmogorov iteration, in steps; zero
	// selects the package default. Expected uptimes beyond the horizon
	// saturate, which is harmless when the horizon exceeds the
	// experiment deadline.
	Horizon int
}

// DefaultHistory is how much price history the paper uses to build the
// Markov state (§5: "a price history size of 2 days").
const DefaultHistory int64 = 2 * 24 * trace.Hour

// ErrNoHistory reports an empty price history.
var ErrNoHistory = errors.New("markov: empty price history")

// Fit estimates the chain from a price sample sequence taken every step
// seconds.
func Fit(prices []float64, step int64) (*Model, error) {
	if len(prices) == 0 {
		return nil, ErrNoHistory
	}
	if step <= 0 {
		return nil, fmt.Errorf("markov: non-positive step %d", step)
	}
	// Distinct states, sorted.
	uniq := map[float64]struct{}{}
	for _, p := range prices {
		uniq[p] = struct{}{}
	}
	states := make([]float64, 0, len(uniq))
	for p := range uniq {
		states = append(states, p)
	}
	sort.Float64s(states)
	index := make(map[float64]int, len(states))
	for i, p := range states {
		index[p] = i
	}

	n := len(states)
	counts := make([][]float64, n)
	for i := range counts {
		counts[i] = make([]float64, n)
	}
	for t := 1; t < len(prices); t++ {
		counts[index[prices[t-1]]][index[prices[t]]]++
	}
	trans := make([][]float64, n)
	for i := range trans {
		trans[i] = make([]float64, n)
		var total float64
		for _, c := range counts[i] {
			total += c
		}
		if total == 0 {
			// A state with no observed outgoing transition (e.g. the
			// final sample): treat it as absorbing.
			trans[i][i] = 1
			continue
		}
		for j, c := range counts[i] {
			trans[i][j] = c / total
		}
	}
	return &Model{States: states, Trans: trans, Step: step}, nil
}

// Quantize rounds prices to the given quantum (e.g. 0.05 for nickel
// buckets), bounding the number of Markov states on volatile histories.
// A non-positive quantum returns the input unchanged.
func Quantize(prices []float64, quantum float64) []float64 {
	if quantum <= 0 {
		return prices
	}
	out := make([]float64, len(prices))
	for i, p := range prices {
		out[i] = math.Round(p/quantum) * quantum
	}
	return out
}

// StateOf returns the index of the state closest to price.
func (m *Model) StateOf(price float64) int {
	i := sort.SearchFloat64s(m.States, price)
	if i == len(m.States) {
		return len(m.States) - 1
	}
	if i == 0 {
		return 0
	}
	if price-m.States[i-1] <= m.States[i]-price {
		return i - 1
	}
	return i
}

// NumStates returns the number of distinct price states.
func (m *Model) NumStates() int { return len(m.States) }

// uptimeOptions bounds the Chapman-Kolmogorov iteration.
const (
	// maxUptimeSteps caps the iteration; at a 5-minute step this is
	// about 35 days, far beyond any experiment horizon.
	maxUptimeSteps = 10_000
	// convergeEps stops the iteration once the surviving probability
	// mass cannot change the expectation at seconds granularity, the
	// paper's Th criterion.
	convergeEps = 1e-9
)

// ExpectedUptime returns E[T_u] in seconds for an instance started at
// the given current price with the given bid. It returns +Inf when the
// chain predicts the instance essentially never crosses above the bid
// (e.g. the bid is above every state reachable from the start state).
func (m *Model) ExpectedUptime(bid, currentPrice float64) float64 {
	start := m.StateOf(currentPrice)
	if m.States[start] > bid {
		return 0 // already out of bid: no uptime
	}
	n := len(m.States)
	up := make([]bool, n)
	anyDown := false
	for i, p := range m.States {
		up[i] = p <= bid
		if !up[i] {
			anyDown = true
		}
	}
	if !anyDown {
		return math.Inf(1)
	}

	// Probability mass over up-states only; mass that transitions into
	// a down state at step k contributes k·Step to the expectation.
	horizon := m.Horizon
	if horizon <= 0 {
		horizon = maxUptimeSteps
	}
	prob := make([]float64, n)
	prob[start] = 1
	next := make([]float64, n)
	var expected float64
	alive := 1.0
	for k := 1; k <= horizon; k++ {
		for j := range next {
			next[j] = 0
		}
		var died float64
		for i := 0; i < n; i++ {
			pi := prob[i]
			if pi == 0 {
				continue
			}
			row := m.Trans[i]
			for j := 0; j < n; j++ {
				pj := pi * row[j]
				if pj == 0 {
					continue
				}
				if up[j] {
					next[j] += pj
				} else {
					died += pj
				}
			}
		}
		expected += float64(k) * float64(m.Step) * died
		alive -= died
		prob, next = next, prob
		if alive <= convergeEps {
			return expected
		}
		// Stop when the remaining mass can no longer move the
		// expectation meaningfully; attribute it to the current step
		// (the paper's Th criterion: iterate until the expectation is
		// stable at seconds granularity).
		if alive*float64(k)*float64(m.Step) < 1 {
			return expected + alive*float64(k)*float64(m.Step)
		}
	}
	if alive > 0.5 {
		// The chain essentially never leaves the up set from here.
		return math.Inf(1)
	}
	// Truncated tail: attribute the surviving mass to the horizon.
	return expected + alive*float64(horizon)*float64(m.Step)
}
