package core

import (
	"math"
	"reflect"
	"slices"
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
	predictCost := func(e estimate, cr, tr, migration int64) float64 {
		return predictCostAt(e, cr, tr, migration, market.OnDemandRate)
	}
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

// TestZonesByPrice checks the zone order an Adaptive decision's grid
// uses: cheapest current price first, read as the final price of the
// trailing window the decision reconstructs.
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
		order = zonesByHistPrice((&sweepScratch{}).slide(env, 1, 12*trace.Hour))
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

// priceHistorySet builds the trailing span seconds of price history
// visible at env.Now straight from Env.PriceHistory: the reference an
// Adaptive decision's resident window must equal.
func priceHistorySet(env *sim.Env, span int64) *trace.Set {
	series := make([]*trace.Series, len(env.Zones))
	for zi := range env.Zones {
		prices := env.PriceHistory(zi, span)
		series[zi] = &trace.Series{
			Zone:   env.Cfg.Trace.Series[zi].Zone,
			Epoch:  env.Now - int64(len(prices)-1)*env.Step,
			Step:   env.Step,
			Prices: prices,
		}
	}
	return trace.MustNewSet(series...)
}

// TestHistorySet pins an Adaptive decision's resident window: at the
// run's start it is the trailing window of the bootstrap history, ending
// at the decision time, and at every later decision time it equals
// Env.PriceHistory's samples — spans on and off the step grid, a window
// still growing into its span, slides of one step and of many, and a
// jump past the whole window.
func TestHistorySet(t *testing.T) {
	set := tracegen.LowVolatility(3)
	hist, run := window(set, 3, 1)
	cfg := testConfig(hist, run, 300)
	var got *trace.Set
	probe := probeStrategy{func(env *sim.Env) {
		got = (&sweepScratch{}).slide(env, 1, 6*trace.Hour)
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
	// The window must end at the probe time (run start) and agree with
	// the source prices.
	if got.End() != run.Start()+set.Step() {
		t.Fatalf("history ends at %d, want %d", got.End(), run.Start()+set.Step())
	}
	wantPrice := set.Series[0].PriceAt(got.Start())
	if got.Series[0].Prices[0] != wantPrice {
		t.Fatalf("history price = %g, want %g", got.Series[0].Prices[0], wantPrice)
	}

	// A short bootstrap history, so early windows still grow into their
	// span, and decision times up to 12 h past the run's end, whose
	// samples read as its last. Each window's chain states, read from
	// the env's views (a root's column, or the env's own off the grid),
	// are those of its prices.
	cfg.History = hist.Slice(hist.End()-2*trace.Hour, hist.End())
	m, err := sim.NewMachine(cfg, probeStrategy{func(*sim.Env) {}})
	if err != nil {
		t.Fatal(err)
	}
	env := m.Env()
	for _, span := range []int64{6 * trace.Hour, 6*trace.Hour + 100} {
		sc := &sweepScratch{}
		gaps := []int64{1, 1, 12, 3, 100, 7}
		for k, now := 0, run.Start(); now < run.End()+12*trace.Hour; k, now = k+1, now+gaps[k%len(gaps)]*run.Step() {
			env.Now = now
			got := sc.slide(env, 1, span)
			want := priceHistorySet(env, span)
			if got.Start() != want.Start() || got.Step() != want.Step() || !slices.Equal(got.Zones(), want.Zones()) {
				t.Fatalf("span %d at %d: window [%d, %d) step %d, PriceHistory's [%d, %d) step %d",
					span, now, got.Start(), got.End(), got.Step(), want.Start(), want.End(), want.Step())
			}
			for zi := range want.Series {
				if !slices.Equal(got.Series[zi].Prices, want.Series[zi].Prices) {
					t.Fatalf("span %d at %d: zone %d window %v, PriceHistory %v", span, now, zi, got.Series[zi].Prices, want.Series[zi].Prices)
				}
				ids, vals := got.Series[zi].States()
				for i, p := range got.Series[zi].Prices {
					if vals[ids[i]] != trace.Bucket(p) {
						t.Fatalf("span %d at %d: zone %d sample %d (%g) in state %g", span, now, zi, i, p, vals[ids[i]])
					}
				}
			}
		}
	}
}

// decisionFunc adapts a function to DecisionSink.
type decisionFunc func(DecisionPoint)

func (f decisionFunc) RecordDecision(p DecisionPoint) { f(p) }

// TestAdaptiveKeepsProfileParameters runs Adaptive over Periodic and
// two Markov-Daly descriptors that differ only in their history span;
// on this trace each of them wins some decision. Every decision
// record's Chosen.Policy must name the descriptor of the policy
// instance the decision installed or kept — never merely the
// instance's Name(), which both Markov-Daly profiles share — and that
// instance must carry the descriptor's parameters. Instance identities
// pin what a run builds: its grid and one measurement instance per
// candidate at its first decision (the batched engine reads only their
// parameters), kept by every later decision, and one fresh instance of
// each winner it installs, which a kept incumbent keeps running.
func TestAdaptiveKeepsProfileParameters(t *testing.T) {
	spans := []int64{0, trace.Hour, 30 * 60} // 0 marks the Periodic candidate
	a := &Adaptive{
		Bids:             []float64{0.47, 0.81, 1.67},
		MaxZones:         2,
		EstimationWindow: 6 * trace.Hour,
	}
	var kinds []string
	for _, span := range spans {
		pol := PolicySpec{Family: FamilyMarkovDaly, HistorySpan: span}
		if span == 0 {
			pol = PolicySpec{Family: FamilyPeriodic}
		}
		a.Candidates = append(a.Candidates, pol)
		kinds = append(kinds, pol.String())
	}
	// runsIncumbent checks that the running spec's instance is the
	// candidate the last decision record named.
	runsIncumbent := func(incumbent int) {
		t.Helper()
		var got PolicySpec
		switch p := a.chosen.Policy.(type) {
		case *Periodic:
			got = PolicySpec{Family: FamilyPeriodic}
		case *MarkovDaly:
			got = PolicySpec{Family: FamilyMarkovDaly, HistorySpan: p.HistorySpan, FirstOrder: !p.HigherOrder}
		default:
			t.Fatalf("runs a %T", p)
		}
		if got.String() != kinds[incumbent] || a.chosenPol.String() != kinds[incumbent] {
			t.Fatalf("decision recorded %q, but runs an instance of %q under %q", kinds[incumbent], got, a.chosenPol)
		}
	}
	var grid *runGrid
	var pols []sim.CheckpointPolicy
	installed := map[sim.CheckpointPolicy]bool{}
	// runsOwnInstance checks that the running instance is one of its
	// own: never a measurement instance, and new exactly when a decision
	// since the last check switched.
	switches := 0
	runsOwnInstance := func() {
		t.Helper()
		installed[a.chosen.Policy] = true
		if slices.Contains(pols, a.chosen.Policy) || len(installed) != switches {
			t.Fatalf("after %d switches the run has run %d instances, the current one a measurement instance: %v",
				switches, len(installed), slices.Contains(pols, a.chosen.Policy))
		}
	}
	wins := make([]int, len(spans))
	incumbent, decisions := -1, 0
	a.Sink = decisionFunc(func(p DecisionPoint) {
		decisions++
		if grid == nil {
			grid, pols = a.grid, slices.Clone(a.grid.pols)
			if slices.Contains(pols, nil) {
				t.Fatalf("first decision built measurement instances %v, want one per candidate", pols)
			}
		}
		if a.grid != grid || !slices.Equal(a.grid.pols, pols) {
			t.Fatalf("decision %d rebuilt the run's grid or its measurement instances", p.Seq)
		}
		if incumbent >= 0 {
			runsIncumbent(incumbent)
			runsOwnInstance()
		}
		chosen := slices.Index(kinds, p.Chosen.Policy)
		if chosen < 0 {
			t.Fatalf("decision %d chose policy %q, no candidate's kind", p.Seq, p.Chosen.Policy)
		}
		if !p.Switched && chosen != incumbent {
			t.Fatalf("decision %d kept the incumbent of candidate %d but records candidate %d", p.Seq, incumbent, chosen)
		}
		if p.Switched {
			wins[chosen]++
			switches++
		}
		incumbent = chosen
	})
	hist, run := window(tracegen.HighVolatility(41), 3, 1)
	if _, err := sim.Run(testConfig(hist, run, 300), a); err != nil {
		t.Fatal(err)
	}
	t.Logf("decisions %d, wins per candidate %v", decisions, wins)
	if decisions < 2 {
		t.Fatalf("%d decisions; the run never reconsidered its incumbent", decisions)
	}
	for k, n := range wins {
		if n == 0 {
			t.Errorf("candidate %d (span %d) won no decision; the trace cannot tell the candidates apart", k, spans[k])
		}
	}
	runsIncumbent(incumbent)
	runsOwnInstance()
	if m, ok := a.chosen.Policy.(*MarkovDaly); ok && m.HistorySpan != spans[incumbent] {
		t.Fatalf("running policy span %d, want %d", m.HistorySpan, spans[incumbent])
	}
}

// envSpy runs an Adaptive strategy, keeping the env of the decision in
// progress for its Sink to read.
type envSpy struct {
	*Adaptive
	env *sim.Env
}

func (s *envSpy) Begin(env *sim.Env) sim.RunSpec {
	s.env = env
	return s.Adaptive.Begin(env)
}

func (s *envSpy) Reconsider(env *sim.Env, events []sim.Event) (sim.RunSpec, bool) {
	s.env = env
	return s.Adaptive.Reconsider(env, events)
}

// TestAdaptiveRanksLikeRank pins the one permutation grid: at every
// Adaptive decision whose remaining time covers its remaining work (the
// requests Rank accepts), the recorded ranked grid must equal, element
// for element, the decision form of Rank's table over the same trailing
// window and knobs — same slots, same estimates, same order, same
// descriptors. The candidates include a non-default Markov-Daly
// profile, whose descriptor is not its policy's Name().
func TestAdaptiveRanksLikeRank(t *testing.T) {
	a := &Adaptive{Candidates: append(DefaultAdaptiveCandidates(), PolicySpec{Family: FamilyMarkovDaly, HistorySpan: 6 * trace.Hour})}
	spy := &envSpy{Adaptive: a}
	ev := NewEvaluator()
	compared := 0
	a.Sink = decisionFunc(func(p DecisionPoint) {
		env := spy.env
		if env.RemainingTime() < env.RemainingWork() {
			return
		}
		req := PlanRequest{
			History:        priceHistorySet(env, a.window()),
			Work:           env.RemainingWork(),
			Deadline:       env.RemainingTime(),
			CheckpointCost: env.CheckpointCost(),
			RestartCost:    env.RestartCost(),
			Bids:           a.Bids,
			MaxZones:       a.MaxZones,
			Candidates:     a.Candidates,
		}
		plans, err := ev.Rank(req)
		if err != nil {
			t.Fatalf("decision %d: %v", p.Seq, err)
		}
		want := rankDecision(req.History, plans).Ranked
		if len(p.Ranked) != len(want) {
			t.Fatalf("decision %d ranks %d permutations, Rank %d", p.Seq, len(p.Ranked), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(p.Ranked[i], want[i]) {
				t.Fatalf("decision %d rank %d: Adaptive %+v, Rank %+v", p.Seq, i, p.Ranked[i], want[i])
			}
		}
		compared++
	})
	hist, run := window(tracegen.HighVolatility(41), 3, 1)
	if _, err := sim.Run(testConfig(hist, run, 300), spy); err != nil {
		t.Fatal(err)
	}
	t.Logf("compared %d decisions", compared)
	if compared < 3 {
		t.Fatalf("compared %d decisions; the run made too few to pin the grid", compared)
	}
}
