package core

import (
	"math"
	"testing"

	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func TestAdaptiveCompletesBothRegimes(t *testing.T) {
	for name, set := range map[string]*trace.Set{
		"low":  tracegen.LowVolatility(31),
		"high": tracegen.HighVolatility(31),
	} {
		hist, run := window(set, 5, 2)
		cfg := testConfig(hist, run, 300)
		res, err := sim.Run(cfg, NewAdaptive())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed || !res.DeadlineMet {
			t.Fatalf("%s: adaptive failed: %+v", name, res)
		}
		// The paper's §7.2 bound: total cost stayed within 20% above
		// on-demand across all its experiments; we allow a wider 50%
		// band as a hard invariant for the small test config.
		od := math.Ceil(float64(cfg.Work)/float64(trace.Hour)) * market.OnDemandRate
		if res.Cost > 1.5*od {
			t.Fatalf("%s: adaptive cost %g far above on-demand %g", name, res.Cost, od)
		}
		t.Logf("%s: cost=%.2f policy=%s switches=%d", name, res.Cost, res.Policy, res.SpecSwitches)
	}
}

func TestAdaptiveBeatsOnDemandInCalmMarket(t *testing.T) {
	hist, run := window(tracegen.LowVolatility(37), 7, 2)
	cfg := testConfig(hist, run, 300)
	res, err := sim.Run(cfg, NewAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	od := 6 * market.OnDemandRate
	if res.Cost > od/2 {
		t.Fatalf("adaptive cost %g should be far below on-demand %g in a calm market", res.Cost, od)
	}
}

func TestAdaptivePicksLowBidInCalmMarket(t *testing.T) {
	hist, run := window(tracegen.LowVolatility(41), 6, 2)
	cfg := testConfig(hist, run, 300)
	a := NewAdaptive()
	res, err := sim.Run(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	// In a calm $0.30 market a single zone suffices; the bid only sets
	// headroom (the hour-start price is what is paid), so any bid above
	// the floor is acceptable but redundancy is not.
	if len(a.chosen.Zones) != 1 {
		t.Fatalf("adaptive chose N=%d in a calm market", len(a.chosen.Zones))
	}
	if a.chosen.Bid <= 0.27 {
		t.Fatalf("adaptive chose the floor bid %g", a.chosen.Bid)
	}
	if res.Cost <= 0 {
		t.Fatal("non-positive cost")
	}
}

func TestAdaptiveAnalyticMode(t *testing.T) {
	for name, set := range map[string]*trace.Set{
		"low":  tracegen.LowVolatility(31),
		"high": tracegen.HighVolatility(31),
	} {
		hist, run := window(set, 5, 2)
		cfg := testConfig(hist, run, 300)
		a := NewAdaptive()
		a.Analytic = true
		res, err := sim.Run(cfg, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed || !res.DeadlineMet {
			t.Fatalf("%s: analytic adaptive failed: %+v", name, res)
		}
		od := math.Ceil(float64(cfg.Work)/float64(trace.Hour)) * market.OnDemandRate
		if res.Cost > 1.5*od {
			t.Fatalf("%s: analytic adaptive cost %g far above on-demand %g", name, res.Cost, od)
		}
		if res.Policy != "markov-daly" {
			t.Fatalf("%s: analytic mode ran policy %q", name, res.Policy)
		}
		t.Logf("%s: analytic adaptive cost=%.2f", name, res.Cost)
	}
}

func TestAdaptiveHourOnlyAblation(t *testing.T) {
	hist, run := window(tracegen.HighVolatility(43), 4, 2)
	cfg := testConfig(hist, run, 300)
	a := NewAdaptive()
	a.ReDecideOnHourOnly = true
	res, err := sim.Run(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.DeadlineMet {
		t.Fatalf("hour-only adaptive failed: %+v", res)
	}
}

func TestPredictCost(t *testing.T) {
	hour := float64(trace.Hour)
	// Full-speed free progress: cost 0.
	if got := predictCost(estimate{progressRate: 1, costRate: 0}, trace.Hour, 4*trace.Hour, 600); got != 0 {
		t.Fatalf("free spot predicted %g", got)
	}
	// No remaining work: zero cost.
	if got := predictCost(estimate{}, 0, trace.Hour, 0); got != 0 {
		t.Fatalf("no work predicted %g", got)
	}
	// No time left: pure on-demand at $2.40/h.
	if got := predictCost(estimate{progressRate: 0.9, costRate: 0}, 2*trace.Hour, 100, 600); got != 2*market.OnDemandRate {
		t.Fatalf("no-time prediction = %g", got)
	}
	// Zero progress rate: everything on-demand.
	want := math.Ceil(2*hour/hour) * market.OnDemandRate
	if got := predictCost(estimate{progressRate: 0, costRate: 0}, 2*trace.Hour, 10*trace.Hour, 600); got != want {
		t.Fatalf("zero-rate prediction = %g, want %g", got, want)
	}
	// Half progress rate, plenty of time: pure spot costing
	// costRate × work/rate.
	e := estimate{progressRate: 0.5, costRate: 0.30 / hour}
	got := predictCost(e, 2*trace.Hour, 100*trace.Hour, 600)
	wantSpot := e.costRate * (2 * hour / 0.5)
	if math.Abs(got-wantSpot) > 1e-9 {
		t.Fatalf("pure-spot prediction = %g, want %g", got, wantSpot)
	}
	// Rate too slow for the window: a mixed schedule costs more than
	// pure spot would but never more than switching to on-demand now.
	gotMixed := predictCost(e, 4*trace.Hour, 5*trace.Hour, 600)
	odAll := math.Ceil(4) * market.OnDemandRate
	if gotMixed <= 0 || gotMixed > odAll {
		t.Fatalf("mixed prediction = %g, want in (0, %g]", gotMixed, odAll)
	}
}

func TestZonesByPrice(t *testing.T) {
	run := trace.MustNewSet(
		trace.NewSeries("a", 0, []float64{0.9, 0.9}),
		trace.NewSeries("b", 0, []float64{0.3, 0.3}),
		trace.NewSeries("c", 0, []float64{0.5, 0.5}),
	)
	cfg := sim.Config{
		Trace: run, Work: 300, Deadline: 1200,
		CheckpointCost: 0, RestartCost: 0, Delay: market.FixedDelay(0), Seed: 1,
	}
	var order []int
	probe := probeStrategy{func(env *sim.Env) {
		order = zonesByPrice(env)
	}}
	if _, err := sim.Run(cfg, probe); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("order = %v", order)
	}
}

// probeStrategy runs a callback at Begin and then executes on-demand.
type probeStrategy struct {
	fn func(env *sim.Env)
}

func (p probeStrategy) Name() string { return "probe" }
func (p probeStrategy) Begin(env *sim.Env) sim.RunSpec {
	p.fn(env)
	return sim.RunSpec{}
}
func (p probeStrategy) Reconsider(*sim.Env, []sim.Event) (sim.RunSpec, bool) {
	return sim.RunSpec{}, false
}

func TestHistorySet(t *testing.T) {
	set := tracegen.LowVolatility(3)
	hist, run := window(set, 3, 1)
	cfg := testConfig(hist, run, 300)
	var got *trace.Set
	probe := probeStrategy{func(env *sim.Env) {
		got = historySet(env, 6*trace.Hour)
	}}
	if _, err := sim.Run(cfg, probe); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no history set built")
	}
	if got.NumZones() != 3 {
		t.Fatalf("zones = %d", got.NumZones())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	// The reconstructed series must end at the probe time (run start)
	// and agree with the source prices.
	if got.End() != run.Start()+set.Step() {
		t.Fatalf("history ends at %d, want %d", got.End(), run.Start()+set.Step())
	}
	wantPrice := set.Series[0].PriceAt(got.Start())
	if got.Series[0].Prices[0] != wantPrice {
		t.Fatalf("history price = %g, want %g", got.Series[0].Prices[0], wantPrice)
	}
}

// TestAdaptiveKeepsProfileParameters runs Adaptive over two candidate
// factories of one kind: a deliberately poor policy listed first, and
// a Markov-Daly profile with quantum 0.1 that wins every decision. The
// winner must be built by its own factory, not the first of its kind,
// and churn damping must re-price the incumbent with fresh instances
// from that same factory, never a default profile.
func TestAdaptiveKeepsProfileParameters(t *testing.T) {
	var made, poor int
	sink := &captureSink{}
	a := &Adaptive{
		Bids:             []float64{0.47, 0.81, 1.67},
		MaxZones:         2,
		EstimationWindow: 6 * trace.Hour,
		Sink:             sink,
		Candidates: []PolicyFactory{
			{Kind: "markov-daly", New: func() sim.CheckpointPolicy { poor++; return everyStep{} }},
			{Kind: "markov-daly", New: func() sim.CheckpointPolicy {
				made++
				m := NewMarkovDaly()
				m.Quantum = 0.1
				return m
			}},
		},
	}
	hist, run := window(tracegen.HighVolatility(31), 5, 1)
	if _, err := sim.Run(testConfig(hist, run, 300), a); err != nil {
		t.Fatal(err)
	}
	if len(sink.points) < 2 {
		t.Fatalf("%d decisions; the run never reconsidered its incumbent", len(sink.points))
	}
	installed := 0
	for _, p := range sink.points {
		if p.Chosen.Policy != "markov-daly" {
			t.Fatalf("decision %d chose policy %q, want the Markov-Daly profile", p.Seq, p.Chosen.Policy)
		}
		if p.Switched {
			installed++
		}
	}
	if m, ok := a.chosen.Policy.(*MarkovDaly); !ok || m.Quantum != 0.1 {
		t.Fatalf("running policy %+v, want the quantum-0.1 profile", a.chosen.Policy)
	}
	// Each factory builds its measurement slots once (bids × zone
	// counts); beyond them, only the winning factory builds: one
	// instance per installed spec and one per re-pricing of the
	// incumbent, which every decision after Begin does once.
	slots := len(a.Bids) * a.MaxZones
	if poor != slots {
		t.Fatalf("the first factory built %d instances, want only its %d measurement slots", poor, slots)
	}
	if repriced := made - slots - installed; repriced != len(sink.points)-1 {
		t.Fatalf("%d fresh quantum-0.1 instances re-priced the incumbent over %d later decisions", repriced, len(sink.points)-1)
	}
}

// everyStep is a deliberately poor checkpoint policy: it checkpoints at
// every opportunity, so its replays make almost no progress.
type everyStep struct{}

func (everyStep) Name() string                      { return "every-step" }
func (everyStep) Reset(*sim.Env)                    {}
func (everyStep) CheckpointCondition(*sim.Env) bool { return true }
func (everyStep) ScheduleNextCheckpoint(*sim.Env)   {}
