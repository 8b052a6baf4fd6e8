package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/daly"
	"repro/internal/market"
	"repro/internal/markov"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// referenceInterval is Markov-Daly's interval computed from scratch:
// the trailing history through priceHistory, bucketed to nickels by
// markov.Quantize, fitted by markov.Fit, solved by ExpectedUptimeExact,
// summed over the zones (§4.2: independent zones add their expected
// uptimes) and converted by Daly's estimate.
func referenceInterval(m *MarkovDaly, env *sim.Env) float64 {
	span := m.HistorySpan
	if span <= 0 {
		span = markov.DefaultHistory
	}
	var mtbf float64
	fitted := false
	for _, zi := range env.Spec.Zones {
		mod, err := markov.Fit(markov.Quantize(priceHistory(env, zi, span), 0.05), env.Step)
		if err != nil {
			continue
		}
		fitted = true
		if u := mod.ExpectedUptimeExact(env.Spec.Bid, env.PriceNow(zi)); math.IsInf(u, 1) || math.IsInf(mtbf, 1) {
			mtbf = math.Inf(1)
		} else {
			mtbf += u
		}
	}
	if !fitted {
		return math.Inf(1)
	}
	if m.HigherOrder {
		return daly.Optimal(float64(env.CheckpointCost()), mtbf)
	}
	return daly.Young(float64(env.CheckpointCost()), mtbf)
}

// checkedMarkovDaly is a Markov-Daly policy that compares its interval
// with referenceInterval at every schedule.
type checkedMarkovDaly struct {
	*MarkovDaly
	t      *testing.T
	checks int
}

func (c *checkedMarkovDaly) Reset(env *sim.Env) {
	c.MarkovDaly.Reset(env)
	c.check(env)
}

func (c *checkedMarkovDaly) ScheduleNextCheckpoint(env *sim.Env) {
	c.MarkovDaly.ScheduleNextCheckpoint(env)
	c.check(env)
}

func (c *checkedMarkovDaly) check(env *sim.Env) {
	c.t.Helper()
	c.checks++
	got, want := c.interval(env), referenceInterval(c.MarkovDaly, env)
	if math.Float64bits(got) != math.Float64bits(want) {
		c.t.Fatalf("schedule %d at t=%d: interval %v, reference %v", c.checks, env.Now, got, want)
	}
}

// runChecked drives a machine to completion, appending grow's rows to
// the trace whenever the machine runs out of data.
func runChecked(t *testing.T, mach *sim.Machine, grow func() bool) {
	t.Helper()
	for !mach.Done() {
		err := mach.Step()
		if errors.Is(err, sim.ErrNoData) && grow != nil && grow() {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMarkovDalyMatchesReference pins the sliding per-zone chain fits
// to the from-scratch reference at every schedule of full runs: with
// and without a bootstrap history, a span or a history off the step
// grid, a pooled machine reset onto another configuration, a trace that
// grows by append between steps, fits past the trace's end, and a run long enough for the fitters'
// windows to slide many times their length.
func TestMarkovDalyMatchesReference(t *testing.T) {
	set := tracegen.HighVolatility(5)
	at := set.Start() + 2*24*trace.Hour
	hist := set.Slice(at-2*24*trace.Hour, at)
	run := set.Slice(at, set.End())
	var shiftedSeries []*trace.Series
	for _, s := range hist.Series {
		shiftedSeries = append(shiftedSeries, trace.NewSeries(s.Zone, at-6*trace.Hour+150, s.Prices[:12*6]))
	}
	shifted := trace.MustNewSet(shiftedSeries...)
	cfg := func(history *trace.Set, work int64) sim.Config {
		return sim.Config{
			Trace: run, History: history,
			Work: work, Deadline: 2 * work,
			CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
		}
	}
	cases := []struct {
		name  string
		cfg   sim.Config
		zones []int
		vary  func(*MarkovDaly)
	}{
		{"history-nil", cfg(nil, 20*trace.Hour), []int{0}, nil},
		{"history", cfg(hist, 20*trace.Hour), []int{0, 1, 2}, nil},
		// Without a history the window start is clamped to the run start
		// (on the step grid) until the span fits, then leaves the grid.
		{"span-off-grid", cfg(nil, 20*trace.Hour), []int{1, 2}, func(m *MarkovDaly) { m.HistorySpan = 7*trace.Hour + 100 }},
		{"span-off-grid-history", cfg(hist, 20*trace.Hour), []int{0}, func(m *MarkovDaly) { m.HistorySpan = 7*trace.Hour + 100 }},
		// A history off the run's step grid: the window start is clamped
		// to it, then moves onto the run's grid.
		{"history-off-grid", cfg(shifted, 20*trace.Hour), []int{0, 1}, func(m *MarkovDaly) { m.HistorySpan = 12 * trace.Hour }},
		{"young", cfg(nil, 20*trace.Hour), []int{0, 1}, func(m *MarkovDaly) { m.HigherOrder = false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol := &checkedMarkovDaly{MarkovDaly: NewMarkovDaly(), t: t}
			if tc.vary != nil {
				tc.vary(pol.MarkovDaly)
			}
			mach, err := sim.NewMachine(tc.cfg, Redundant(pol, 0.81, tc.zones))
			if err != nil {
				t.Fatal(err)
			}
			runChecked(t, mach, nil)
			if pol.checks < 5 {
				t.Fatalf("only %d schedules checked", pol.checks)
			}
		})
	}

	t.Run("pooled-reset", func(t *testing.T) {
		// One policy instance and one machine across runs whose
		// configurations differ in history, trace window and zones, and
		// last in the prices alone: same times, another trace.
		pol := &checkedMarkovDaly{MarkovDaly: NewMarkovDaly(), t: t}
		mach, err := sim.NewMachine(cfg(hist, 20*trace.Hour), Redundant(pol, 0.81, []int{0, 1}))
		if err != nil {
			t.Fatal(err)
		}
		runChecked(t, mach, nil)
		later := cfg(nil, 10*trace.Hour)
		later.Trace = set.Slice(set.Start()+5*24*trace.Hour, set.End())
		same := cfg(hist, 20*trace.Hour)
		alt := tracegen.HighVolatility(6)
		same.Trace, same.History = alt.Slice(at, alt.End()), alt.Slice(hist.Start(), at)
		for _, c := range []sim.Config{later, cfg(hist, 15*trace.Hour), same} {
			if err := mach.Reset(c, Redundant(pol, 0.81, []int{2, 0})); err != nil {
				t.Fatal(err)
			}
			runChecked(t, mach, nil)
		}
	})

	t.Run("appended-trace", func(t *testing.T) {
		// The live scheduler's shape: the trace starts short and grows
		// by one row whenever the machine runs out of data — with a
		// history that is not the trace's (the env buckets its own
		// column) and with none (the trace's own column grows).
		for _, history := range []*trace.Set{hist, nil} {
			series := make([]*trace.Series, run.NumZones())
			for i, s := range run.Series {
				series[i] = trace.NewSeries(s.Zone, s.Start(), append([]float64(nil), s.Prices[:3]...))
			}
			live := trace.MustNewSet(series...)
			c := cfg(history, 20*trace.Hour)
			c.Trace = live
			pol := &checkedMarkovDaly{MarkovDaly: NewMarkovDaly(), t: t}
			mach, err := sim.NewMachine(c, Redundant(pol, 0.81, []int{0, 1, 2}))
			if err != nil {
				t.Fatal(err)
			}
			runChecked(t, mach, func() bool {
				n := live.Series[0].Len()
				if n >= run.Series[0].Len() {
					return false
				}
				for i, s := range live.Series {
					s.Prices = append(s.Prices, run.Series[i].Prices[n])
				}
				return true
			})
			if pol.checks < 5 {
				t.Fatalf("only %d schedules checked", pol.checks)
			}
		}
	})

	t.Run("past-end", func(t *testing.T) {
		// Fits at times past the trace's end read its last sample, as
		// Env.Price clamps: through the root's column (a history and
		// trace cut adjacent from a root that runs on past the trace)
		// and through the env's own (a history off the step grid).
		short := set.Slice(at, at+24*trace.Hour)
		for _, history := range []*trace.Set{hist, shifted} {
			c := cfg(history, 20*trace.Hour)
			c.Trace = short
			pol := &checkedMarkovDaly{MarkovDaly: NewMarkovDaly(), t: t}
			pol.HistorySpan = 12 * trace.Hour
			mach, err := sim.NewMachine(c, Redundant(pol, 0.81, []int{0, 1}))
			if err != nil {
				t.Fatal(err)
			}
			env := mach.Env()
			for env.Now = short.End() - 2*env.Step; env.Now < short.End()+6*trace.Hour; env.Now += env.Step {
				pol.ScheduleNextCheckpoint(env)
			}
		}
	})

	t.Run("compaction", func(t *testing.T) {
		// A 2-hour span over a multi-day run: the window slides past
		// many times its length.
		pol := &checkedMarkovDaly{MarkovDaly: NewMarkovDaly(), t: t}
		pol.HistorySpan = 2 * trace.Hour
		c := cfg(hist, 4*24*trace.Hour)
		c.Deadline = 8 * 24 * trace.Hour
		mach, err := sim.NewMachine(c, Redundant(pol, 0.81, []int{0, 1}))
		if err != nil {
			t.Fatal(err)
		}
		runChecked(t, mach, nil)
		// The env's fitters hold no ids and count over O(D²) slots
		// however many samples pass (sim's TestChainFitBound).
		if pol.checks < 50 {
			t.Fatalf("only %d schedules checked", pol.checks)
		}
	})
}

// TestMarkovDalyScheduleAllocFree pins a warmed schedule — one new
// sample per zone, a sliding fit and the uptime solve — as
// allocation-free.
func TestMarkovDalyScheduleAllocFree(t *testing.T) {
	// A periodic two-zone trace: every distinct price appears early, so
	// no fit after warm-up meets a new state.
	var a, b []float64
	for i := 0; i < 12*24*6; i++ {
		a = append(a, []float64{0.30, 0.35, 0.90, 0.30, 0.40, 0.35}[i%6])
		b = append(b, []float64{0.40, 0.30, 0.30, 1.20, 0.35}[i%5])
	}
	set := trace.MustNewSet(trace.NewSeries("a", 0, a), trace.NewSeries("b", 0, b))
	cfg := sim.Config{
		Trace: set, Work: 24 * trace.Hour, Deadline: 48 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	pol := NewMarkovDaly()
	pol.HistorySpan = 6 * trace.Hour
	mach, err := sim.NewMachine(cfg, Redundant(pol, 0.81, []int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	env := mach.Env()
	advance := func() {
		env.Now += env.Step
		pol.ScheduleNextCheckpoint(env)
	}
	for i := 0; i < 12*24; i++ { // warm through several compactions
		advance()
	}
	if allocs := testing.AllocsPerRun(200, advance); allocs != 0 {
		t.Fatalf("warmed schedule allocates %v times", allocs)
	}
	if math.IsInf(pol.interval(env), 1) {
		t.Fatal("interval is unbounded; the solve was skipped")
	}
}
