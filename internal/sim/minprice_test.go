package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/trace"
)

// minObservedRef is the brute-force S_min: a full rescan of the zone's
// available history and the elapsed run on every call.
func minObservedRef(e *Env, zone int) float64 {
	lo := e.StartTime
	if e.Cfg.History != nil && e.Cfg.History.Duration() > 0 {
		lo = e.Cfg.History.Start()
	}
	min := e.Price(zone, lo)
	for t := lo; t <= e.Now; t += e.Step {
		if p := e.Price(zone, t); p < min {
			min = p
		}
	}
	return min
}

// checkMinObserved compares MinObservedPrice with the brute-force scan
// for the zones of the trace. Each zone sits out every third step, so
// the running minimum also catches up over gaps.
func checkMinObserved(t *testing.T, m *Machine, step int) {
	t.Helper()
	env := m.Env()
	for z := range env.Zones {
		if (step+z)%3 == 0 {
			continue
		}
		got, want := env.MinObservedPrice(z), minObservedRef(env, z)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d zone %d at %d: MinObservedPrice = %v, brute force %v", step, z, env.Now, got, want)
		}
	}
}

// runChecked steps m to completion (or the end of its data), checking
// S_min before the first step and after every step, and returns the
// next step number.
func runChecked(t *testing.T, m *Machine, step int) int {
	t.Helper()
	for ; !m.Done() && m.HasData(); step++ {
		checkMinObserved(t, m, step)
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return step
}

// runAll is runChecked over a whole run of at least minSteps steps.
func runAll(t *testing.T, m *Machine, minSteps int) {
	t.Helper()
	if n := runChecked(t, m, 0); n < minSteps {
		t.Fatalf("only %d steps checked", n)
	}
}

// shiftedSet is randomSet with every series starting at epoch.
func shiftedSet(rng *rand.Rand, zones, samples int, epoch int64) *trace.Set {
	set := randomSet(rng, zones, samples)
	for _, s := range set.Series {
		s.Epoch = epoch
	}
	return trace.MustNewSet(set.Series...)
}

func minConfig(set, history *trace.Set) Config {
	cfg := baseConfig(set)
	cfg.History = history
	cfg.Work = 6 * trace.Hour
	cfg.Deadline = set.Duration() - 2*trace.Hour
	return cfg
}

func minStrategy(zones ...int) Strategy {
	return static{RunSpec{Bid: 1.5, Zones: zones, Policy: &hourly{interval: trace.Hour}}}
}

func TestMinObservedPriceMatchesRescan(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 4))
	run := func(t *testing.T, cfg Config, strat Strategy) {
		m, err := NewMachine(cfg, strat)
		if err != nil {
			t.Fatal(err)
		}
		runAll(t, m, 40)
	}
	t.Run("no-history", func(t *testing.T) {
		run(t, minConfig(randomSet(rng, 3, 160), nil), minStrategy(0, 2))
	})
	t.Run("history", func(t *testing.T) {
		// Two history zones for a three-zone trace: zone 2 reads the
		// run trace before StartTime.
		history := shiftedSet(rng, 2, 80, -80*trace.DefaultStep)
		run(t, minConfig(randomSet(rng, 3, 160), history), minStrategy(0, 1, 2))
	})
}

// A pooled machine reset onto a new configuration must not carry the
// previous run's running minima over.
func TestMinObservedPriceAfterPooledReset(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 4))
	low := randomSet(rng, 3, 160)
	for _, s := range low.Series {
		s.Prices[10] = 0.01 // a minimum the next run must not inherit
	}
	history := shiftedSet(rng, 3, 60, -60*trace.DefaultStep)
	m, err := AcquireMachine(minConfig(low, history), minStrategy(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseMachine(m)
	runAll(t, m, 40)
	for _, cfg := range []Config{minConfig(randomSet(rng, 2, 150), nil), minConfig(randomSet(rng, 3, 170), history)} {
		if err := m.Reset(cfg, minStrategy(0, 1)); err != nil {
			t.Fatal(err)
		}
		runAll(t, m, 40)
	}
}

// The live scheduler grows its trace by append between steps; prices
// already read never change, so the running minimum stays exact.
func TestMinObservedPriceOnGrowingTrace(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 4))
	full := randomSet(rng, 3, 200)
	series := make([]*trace.Series, full.NumZones())
	for i, s := range full.Series {
		series[i] = trace.NewSeries(s.Zone, 0, append([]float64(nil), s.Prices[:1]...))
	}
	grown := trace.MustNewSet(series...)
	history := shiftedSet(rng, 3, 40, -40*trace.DefaultStep)
	cfg := minConfig(full, history)
	cfg.Trace = grown
	m, err := NewMachine(cfg, minStrategy(0, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	for row := 1; row < full.Series[0].Len() && !m.Done(); row++ {
		for i, s := range series {
			s.Prices = append(s.Prices, full.Series[i].Prices[row])
		}
		step = runChecked(t, m, step)
	}
	if step < 100 {
		t.Fatalf("only %d steps checked", step)
	}
}
