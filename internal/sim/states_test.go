package sim

import (
	"math"
	"slices"
	"testing"

	"repro/internal/markov"
	"repro/internal/trace"
)

// TestEnvOwnStatesBound pins the env's own state column, which serves a
// run whose history is not a slice of the trace's root (a live
// scheduler's bootstrap beside the series it grows; here also off the
// trace's step grid): as the trace grows it holds exactly one id per
// grid sample from the history's start to the trace's end, each the
// state of the price Price reads there, and a view of one grid stays
// intact after fits on others.
func TestEnvOwnStatesBound(t *testing.T) {
	full := volatileTwoZoneSet()
	var hist, grown []*trace.Series
	for _, s := range full.Series {
		hist = append(hist, trace.NewSeries(s.Zone, -6*trace.Hour+150, slices.Clone(s.Prices[:72])))
		grown = append(grown, trace.NewSeries(s.Zone, 0, slices.Clone(s.Prices[:3])))
	}
	cfg := goldenConfig()
	cfg.History, cfg.Trace = trace.MustNewSet(hist...), trace.MustNewSet(grown...)
	m, err := NewMachine(cfg, goldenStrategy())
	if err != nil {
		t.Fatal(err)
	}
	env := m.Env()
	hs := env.HistoryStart()
	for n := 3; n <= full.Series[0].Len(); n += 7 {
		for i, s := range grown {
			s.Prices = append(s.Prices, full.Series[i].Prices[s.Len():n]...)
		}
		for zone := range grown {
			ids, vals, base := env.States(zone, hs+2*env.Step)
			want := int((cfg.Trace.End() - hs + env.Step - 1) / env.Step)
			if base != hs || len(ids) != want || env.states[zone][0].b.Len() != want {
				t.Fatalf("trace of %d samples: zone %d column from %d holds %d ids (%d viewed), want %d from %d",
					n, zone, base, env.states[zone][0].b.Len(), len(ids), want, hs)
			}
			for i, id := range ids {
				if p := env.Price(zone, base+int64(i)*env.Step); vals[id] != trace.Bucket(p) {
					t.Fatalf("trace of %d samples: zone %d sample %d (%g) in state %g", n, zone, i, p, vals[id])
				}
			}
		}
	}
	ids, vals, _ := env.States(0, hs)
	keepIDs, keepVals := slices.Clone(ids), slices.Clone(vals)
	if other, _, base := env.States(0, hs+200); base != hs+200 || slices.Equal(other, ids) {
		t.Fatalf("a grid based at %d, want %d, reads the same states", base, hs+200)
	}
	if !slices.Equal(ids, keepIDs) || !slices.Equal(vals, keepVals) {
		t.Fatal("a view of one grid changed when the env bucketed another")
	}
	// Fits that alternate between two grids read each grid's column
	// without bucketing it again; a third grid starts fresh storage.
	if again, _, _ := env.States(0, hs); &again[0] != &ids[0] {
		t.Fatal("returning to a grid bucketed its column again")
	}
	env.States(0, hs+100)
	if !slices.Equal(ids, keepIDs) || !slices.Equal(vals, keepVals) {
		t.Fatal("a view of a dropped grid changed")
	}
}

// TestChainFitBound pins the env's sliding chain fits over a history
// and run cut adjacent from one root: every ChainUptime equals the
// from-scratch reference over priceHistory — at a bid below every state
// and at each state's value, from the current price and the lowest
// state — the fitters hold no ids of their own —
// they view the root's states of history and run — and count over at
// most one slot more than a window has samples however far the window
// slides (O(D²) counts), and a released machine's fitters keep no view
// of its run.
func TestChainFitBound(t *testing.T) {
	full := volatileTwoZoneSet()
	cfg := goldenConfig()
	cfg.History, cfg.Trace = full.Slice(0, 4*trace.Hour), full.Slice(4*trace.Hour, full.End())
	m, err := AcquireMachine(cfg, goldenStrategy())
	if err != nil {
		t.Fatal(err)
	}
	env := m.Env()
	const span = 2 * trace.Hour
	for env.Now = cfg.Trace.Start(); env.Now < cfg.Trace.End(); env.Now += env.Step {
		for zone := range env.Zones {
			want, err := markov.Fit(markov.Quantize(priceHistory(env, zone, span), markov.Quantum), env.Step)
			if err != nil {
				t.Fatal(err)
			}
			for _, price := range []float64{env.PriceNow(zone), want.States[0]} {
				for _, bid := range append([]float64{want.States[0] / 2}, want.States...) {
					got, ok := env.ChainUptime(zone, span, bid, price)
					if w := want.ExpectedUptimeExact(bid, price); !ok || math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("zone %d at %d, bid %v, price %v: ChainUptime %v (%v), reference %v", zone, env.Now, bid, price, got, ok, w)
					}
				}
			}
		}
	}
	for zone := range env.Zones {
		f := &env.fits[zone].fit
		if f.Len() != full.Series[zone].Len() {
			t.Fatalf("zone %d fitter views %d samples, want the %d of history and run", zone, f.Len(), full.Series[zone].Len())
		}
		if window := int(span / env.Step); f.Slots() > window+1 {
			t.Fatalf("zone %d fitter counts over %d slots for a %d-sample window", zone, f.Slots(), window)
		}
	}
	ReleaseMachine(m)
	for zone := range m.env.fits {
		if n := m.env.fits[zone].fit.Len(); n != 0 {
			t.Fatalf("released machine's zone %d fitter views %d samples of its run", zone, n)
		}
	}
}

// priceHistory is the chain fits' window, read independently of the
// env's state columns: span seconds of the zone's price history ending
// at (and including) Now, on the step grid, oldest first, from the
// configured trace and bootstrap history, the available history
// bounding it. internal/core's tests keep the same reference.
func priceHistory(env *Env, zone int, span int64) []float64 {
	from := max(env.Now-span+env.Step, env.HistoryStart())
	var out []float64
	for t := from; t <= env.Now; t += env.Step {
		series := env.Cfg.Trace.Series[zone]
		if t < env.StartTime && env.Cfg.History != nil && env.Cfg.History.NumZones() > zone {
			series = env.Cfg.History.Series[zone]
		}
		out = append(out, series.Prices[series.Index(t)])
	}
	return out
}
