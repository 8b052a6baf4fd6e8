// Package experiment reproduces the paper's evaluation (§5–§7): the
// simulation setup, the 80 partially-overlapping experiment windows per
// volatility regime, and one driver per table and figure. Runs are
// deterministic for a fixed suite seed and execute in parallel across a
// worker pool.
package experiment

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sync"

	"repro/internal/market"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Experiment constants from §5.
const (
	// DefaultWork is the uninterrupted execution time C: 20 hours.
	DefaultWork = 20 * trace.Hour
	// DefaultWindows is the number of partially overlapping experiment
	// windows per volatility regime.
	DefaultWindows = 80
	// DefaultHistorySpan primes prediction models: 2 days.
	DefaultHistorySpan = 2 * 24 * trace.Hour
)

// Slacks are the evaluated slack fractions T_l (15% and 50% of C).
var Slacks = []float64{0.15, 0.50}

// CheckpointCosts are the evaluated checkpoint/restart costs in seconds.
var CheckpointCosts = []int64{300, 900}

// Regime names.
const (
	RegimeLow = "low"
	// RegimeLowSpike is the low-volatility window including the $20.02
	// spike the paper observed on March 13–14 2013 (behind Large-bid's
	// worst case).
	RegimeLowSpike = "low-spike"
	RegimeHigh     = "high"
)

// Suite holds the experiment-wide configuration.
type Suite struct {
	// Seed drives trace generation and run seeds.
	Seed uint64
	// Windows is the number of experiment windows per regime.
	Windows int
	// Work is C in seconds.
	Work int64
	// HistorySpan is the model bootstrap history per window.
	HistorySpan int64
	// Workers bounds parallelism; 0 selects GOMAXPROCS.
	Workers int
	// Delay is the queuing delay model; nil selects the measured one.
	Delay market.DelayModel

	mu      sync.Mutex
	regimes map[string]*trace.Set
	costs   hash.Hash64 // FNV-64a over every run cost, see CostDigest
}

// NewSuite returns a suite with the paper's defaults.
func NewSuite(seed uint64) *Suite {
	return &Suite{
		Seed:        seed,
		Windows:     DefaultWindows,
		Work:        DefaultWork,
		HistorySpan: DefaultHistorySpan,
	}
}

// NewQuickSuite returns a reduced-scale suite (fewer windows) for tests
// and benchmarks; the statistical shape survives, the tails thin out.
func NewQuickSuite(seed uint64, windows int) *Suite {
	s := NewSuite(seed)
	s.Windows = windows
	return s
}

// Regime returns (and caches) the named regime's month-long trace.
func (s *Suite) Regime(name string) *trace.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.regimes == nil {
		s.regimes = make(map[string]*trace.Set)
	}
	if set, ok := s.regimes[name]; ok {
		return set
	}
	var set *trace.Set
	switch name {
	case RegimeLow:
		set = tracegen.LowVolatility(s.Seed)
	case RegimeLowSpike:
		set = tracegen.LowVolatilityWithMegaSpike(s.Seed)
	case RegimeHigh:
		set = tracegen.HighVolatility(s.Seed + 1000)
	default:
		panic(fmt.Sprintf("experiment: unknown regime %q", name))
	}
	s.regimes[name] = set
	return set
}

// CostDigest returns the FNV-64a digest over the bits of every run cost
// the suite's drivers have collected, batch by batch in the order the
// drivers ran and task by task within a batch. Reports print costs to
// the cent; the digest moves when any run's cost moves by one bit.
func (s *Suite) CostDigest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.costs == nil {
		return fnv.New64a().Sum64()
	}
	return s.costs.Sum64()
}

// Deadline returns D for a slack fraction, aligned to the step grid.
func (s *Suite) Deadline(slack float64) int64 {
	d := int64(float64(s.Work) * (1 + slack))
	return d / trace.DefaultStep * trace.DefaultStep
}

// windowsFor tiles the regime trace into experiment windows whose run
// spans cover the deadline (plus a safety margin) and whose history is
// always complete.
func (s *Suite) windowsFor(set *trace.Set, slack float64) []trace.Window {
	runLen := s.Deadline(slack) + 2*trace.Hour
	step := set.Step()
	lo := set.Start() + s.HistorySpan
	hi := set.End() - runLen
	if hi < lo {
		return nil
	}
	count := s.Windows
	if count <= 0 {
		count = 1
	}
	out := make([]trace.Window, 0, count)
	span := hi - lo
	for i := 0; i < count; i++ {
		var off int64
		if count > 1 {
			off = span * int64(i) / int64(count-1)
		}
		start := (lo + off) / step * step
		out = append(out, trace.Window{
			Index:   i,
			Run:     set.Slice(start, start+runLen),
			History: set.Slice(start-s.HistorySpan, start),
		})
	}
	return out
}

// ExperimentWindows returns the regime's experiment windows for a slack
// fraction: the public form of the suite's tiling.
func (s *Suite) ExperimentWindows(regime string, slack float64) []trace.Window {
	return s.windowsFor(s.Regime(regime), slack)
}

// Config builds the sim configuration for one window.
func (s *Suite) Config(w trace.Window, slack float64, tc int64) sim.Config {
	return sim.Config{
		Trace:          w.Run,
		History:        w.History,
		Work:           s.Work,
		Deadline:       s.Deadline(slack),
		CheckpointCost: tc,
		RestartCost:    tc, // the paper assumes t_c = t_r (§5)
		Delay:          s.Delay,
		Seed:           s.Seed ^ (uint64(w.Index)+1)*0x9e3779b97f4a7c15,
	}
}

// parallel runs fn(0..n-1) across the shared worker pool and waits.
// A panicking task does not deadlock the batch: pool.Run drains the
// remaining work and re-raises the panic (annotated with the item
// index) on this goroutine.
func (s *Suite) parallel(n int, fn func(i int)) {
	pool.Run(s.Workers, n, fn)
}

// OnDemandReferenceCost is the grey line of every figure: the cost of
// running C entirely on-demand.
func (s *Suite) OnDemandReferenceCost() float64 {
	hours := (s.Work + trace.Hour - 1) / trace.Hour
	return float64(hours) * market.OnDemandRate
}

// MinSpotReferenceCost is the black line: C at the lowest spot price
// ($0.27/h).
func (s *Suite) MinSpotReferenceCost() float64 {
	hours := (s.Work + trace.Hour - 1) / trace.Hour
	return float64(hours) * 0.27
}
