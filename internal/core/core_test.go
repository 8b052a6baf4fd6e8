package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// window cuts a run window with history from a generated preset.
func window(set *trace.Set, startDay int, days int64) (history, run *trace.Set) {
	start := set.Start() + int64(startDay)*24*trace.Hour
	histStart := start - 2*24*trace.Hour
	if histStart < set.Start() {
		histStart = set.Start()
	}
	return set.Slice(histStart, start), set.Slice(start, start+days*24*trace.Hour)
}

func testConfig(history, run *trace.Set, tc int64) sim.Config {
	return sim.Config{
		Trace:          run,
		History:        history,
		Work:           6 * trace.Hour,
		Deadline:       9 * trace.Hour,
		CheckpointCost: tc,
		RestartCost:    tc,
		Delay:          market.FixedDelay(300),
		Seed:           11,
	}
}

func TestAllPoliciesCompleteOnBothRegimes(t *testing.T) {
	regimes := map[string]*trace.Set{
		"low":  tracegen.LowVolatility(21),
		"high": tracegen.HighVolatility(21),
	}
	for name, set := range regimes {
		hist, run := window(set, 5, 2)
		for _, tc := range []int64{300, 900} {
			cfg := testConfig(hist, run, tc)
			strategies := []sim.Strategy{
				SingleZone(NewPeriodic(), 0.81, 0),
				SingleZone(NewMarkovDaly(), 0.81, 0),
				SingleZone(NewEdge(), 0.81, 0),
				SingleZone(NewThreshold(), 0.81, 0),
				Redundant(NewPeriodic(), 0.81, []int{0, 1, 2}),
				Redundant(NewMarkovDaly(), 0.81, []int{0, 1, 2}),
				NewStatic("large-bid", sim.RunSpec{Bid: LargeBidAmount, Zones: []int{0}, Policy: NewLargeBid(0.81)}),
				NewOnDemandOnly(),
			}
			for _, strat := range strategies {
				res, err := sim.Run(cfg, strat)
				if err != nil {
					t.Fatalf("%s/%d/%s: %v", name, tc, strat.Name(), err)
				}
				if !res.Completed {
					t.Errorf("%s/%d/%s: did not complete", name, tc, strat.Name())
				}
				if !res.DeadlineMet {
					t.Errorf("%s/%d/%s: missed deadline (finish %d)", name, tc, strat.Name(), res.FinishTime)
				}
				if res.Cost <= 0 {
					t.Errorf("%s/%d/%s: non-positive cost %g", name, tc, strat.Name(), res.Cost)
				}
			}
		}
	}
}

func TestOnDemandBaselineCostExact(t *testing.T) {
	hist, run := window(tracegen.LowVolatility(3), 4, 2)
	cfg := testConfig(hist, run, 300)
	res, err := sim.Run(cfg, NewOnDemandOnly())
	if err != nil {
		t.Fatal(err)
	}
	want := 6 * market.OnDemandRate // 6 hours of work
	if math.Abs(res.Cost-want) > 1e-9 {
		t.Fatalf("on-demand cost = %g, want %g", res.Cost, want)
	}
}

func TestSpotBeatsOnDemandInCalmMarket(t *testing.T) {
	hist, run := window(tracegen.LowVolatility(7), 6, 2)
	cfg := testConfig(hist, run, 300)
	res, err := sim.Run(cfg, SingleZone(NewPeriodic(), 0.81, 0))
	if err != nil {
		t.Fatal(err)
	}
	od := 6 * market.OnDemandRate
	if res.Cost >= od/2 {
		t.Fatalf("calm-market periodic cost %g should be well below on-demand %g", res.Cost, od)
	}
}

func TestPeriodicCheckpointsRoughlyHourly(t *testing.T) {
	hist, run := window(tracegen.LowVolatility(5), 3, 2)
	cfg := testConfig(hist, run, 300)
	res, err := sim.Run(cfg, SingleZone(NewPeriodic(), 0.81, 0))
	if err != nil {
		t.Fatal(err)
	}
	// 6 hours of work in a calm market: expect roughly one checkpoint
	// per billing hour (the final hour may finish without one).
	if res.Checkpoints < 4 || res.Checkpoints > 8 {
		t.Fatalf("periodic checkpoints = %d, want ≈ 6", res.Checkpoints)
	}
}

func TestEdgeCheckpointsOnRisingPrices(t *testing.T) {
	// Construct a price staircase below the bid: every rise triggers a
	// checkpoint even though the instance is never killed.
	var prices []float64
	for i := 0; i < 12*10; i++ {
		base := 0.30 + float64((i/6)%3)*0.05 // rises every 30 min, cycling
		prices = append(prices, base)
	}
	run := trace.MustNewSet(trace.NewSeries("z", 0, prices))
	cfg := sim.Config{
		Trace:          run,
		Work:           4 * trace.Hour,
		Deadline:       8 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		Delay:          market.FixedDelay(0),
		Seed:           1,
	}
	res, err := sim.Run(cfg, SingleZone(NewEdge(), 0.81, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints < 3 {
		t.Fatalf("edge checkpoints = %d, want several", res.Checkpoints)
	}
	if res.ProviderKills != 0 {
		t.Fatalf("kills = %d, want 0", res.ProviderKills)
	}
}

func TestEdgeNoCheckpointsOnFlatPrices(t *testing.T) {
	prices := make([]float64, 12*10)
	for i := range prices {
		prices[i] = 0.30
	}
	run := trace.MustNewSet(trace.NewSeries("z", 0, prices))
	cfg := sim.Config{
		// Deadline far enough out that the engine's pre-guard insurance
		// checkpoint never triggers.
		Trace: run, Work: 4 * trace.Hour, Deadline: 12 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	res, err := sim.Run(cfg, SingleZone(NewEdge(), 0.81, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints != 0 {
		t.Fatalf("edge checkpointed %d times on a flat price", res.Checkpoints)
	}
}

func TestLargeBidNeverProviderKilled(t *testing.T) {
	hist, run := window(tracegen.HighVolatility(13), 8, 2)
	cfg := testConfig(hist, run, 300)
	strat := NewStatic("large-bid", sim.RunSpec{Bid: LargeBidAmount, Zones: []int{0}, Policy: NewLargeBid(0.81)})
	res, err := sim.Run(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProviderKills != 0 {
		t.Fatalf("large-bid was provider-killed %d times", res.ProviderKills)
	}
	if !res.DeadlineMet {
		t.Fatal("large-bid missed deadline")
	}
}

func TestLargeBidPaysSpikeThatThresholdAvoids(t *testing.T) {
	// A calm zone with a $20.02 spike: the naive variant keeps running
	// through the spike and pays it; a threshold variant releases.
	set := tracegen.LowVolatility(17)
	spikeAt := set.Start() + 30*trace.Hour
	if err := tracegen.InjectSpike(set, 0, spikeAt, 4*trace.Hour, tracegen.MaxObservedSpike); err != nil {
		t.Fatal(err)
	}
	hist := set.Slice(set.Start(), set.Start()+24*trace.Hour)
	run := set.Slice(set.Start()+24*trace.Hour, set.Start()+72*trace.Hour)
	cfg := sim.Config{
		Trace: run, History: hist,
		Work: 16 * trace.Hour, Deadline: 24 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300,
		Delay: market.FixedDelay(300), Seed: 5,
	}
	naive, err := sim.Run(cfg, NewStatic("naive", sim.RunSpec{Bid: LargeBidAmount, Zones: []int{0}, Policy: NewLargeBid(math.Inf(1))}))
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := sim.Run(cfg, NewStatic("guarded", sim.RunSpec{Bid: LargeBidAmount, Zones: []int{0}, Policy: NewLargeBid(0.81)}))
	if err != nil {
		t.Fatal(err)
	}
	if naive.Cost <= guarded.Cost {
		t.Fatalf("naive cost %g should exceed threshold cost %g", naive.Cost, guarded.Cost)
	}
	// The naive run pays at least one hour near the spike price.
	if naive.Cost < tracegen.MaxObservedSpike {
		t.Fatalf("naive cost %g did not include a spike hour", naive.Cost)
	}
	if guarded.UserReleases == 0 {
		t.Fatal("threshold variant never released during the spike")
	}
}

func TestRedundancyBeatsSingleZoneUnderHighVolatility(t *testing.T) {
	// The paper's central claim (§6, Figure 4c): with high volatility
	// and little slack, redundancy-based policies beat single-zone ones
	// at B = $0.81 because the combined availability keeps the job on
	// the spot market where a single volatile zone forces the expensive
	// on-demand fallback. Needs the paper-scale 20 h job to show up;
	// medians are taken across windows and zones.
	set := tracegen.HighVolatility(23)
	work := 20 * trace.Hour
	deadline := 23 * trace.Hour // 15% slack
	var singles, redundants []float64
	for day := 3; day <= 23; day += 4 {
		start := set.Start() + int64(day)*24*trace.Hour
		hist := set.Slice(start-2*24*trace.Hour, start)
		run := set.Slice(start, start+30*trace.Hour)
		cfg := sim.Config{
			Trace: run, History: hist,
			Work: int64(work), Deadline: int64(deadline),
			CheckpointCost: 300, RestartCost: 300,
			Delay: market.FixedDelay(300), Seed: uint64(day),
		}
		for z := 0; z < 3; z++ {
			res, err := sim.Run(cfg, SingleZone(NewMarkovDaly(), 0.81, z))
			if err != nil {
				t.Fatal(err)
			}
			singles = append(singles, res.Cost)
		}
		res, err := sim.Run(cfg, Redundant(NewMarkovDaly(), 0.81, []int{0, 1, 2}))
		if err != nil {
			t.Fatal(err)
		}
		redundants = append(redundants, res.Cost)
	}
	med := func(xs []float64) float64 {
		ys := append([]float64(nil), xs...)
		sort.Float64s(ys)
		return ys[len(ys)/2]
	}
	ms, mr := med(singles), med(redundants)
	t.Logf("single median=%.2f redundant median=%.2f", ms, mr)
	if mr >= ms {
		t.Fatalf("redundant median %.2f not below single-zone median %.2f", mr, ms)
	}
}

func TestBidGrid(t *testing.T) {
	grid := BidGrid()
	if len(grid) != 15 {
		t.Fatalf("grid size = %d, want 15", len(grid))
	}
	if grid[0] != 0.27 || grid[len(grid)-1] != 3.07 {
		t.Fatalf("grid = %v", grid)
	}
	for i := 1; i < len(grid); i++ {
		if math.Abs(grid[i]-grid[i-1]-0.20) > 1e-9 {
			t.Fatalf("grid step at %d: %v", i, grid)
		}
	}
	if got := Figure4Bids(); len(got) != 3 || got[1] != 0.81 {
		t.Fatalf("Figure4Bids = %v", got)
	}
}

func TestMeanUptimeHelper(t *testing.T) {
	// meanUptime reads the history up to Now in place: a one-zone run
	// over the prices, at its last sample.
	mean := func(prices ...float64) float64 {
		set := trace.MustNewSet(trace.NewSeries("z", 0, prices))
		m, err := sim.NewMachine(testConfig(nil, set, 300), probeStrategy{func(*sim.Env) {}})
		if err != nil {
			t.Fatal(err)
		}
		env := m.Env()
		env.Now = set.End() - env.Step
		return meanUptime(env, 0, 0.5)
	}
	// ups: [0.3 0.3] [0.9] [0.3] → two runs of 2 and 1 samples.
	if got := mean(0.3, 0.3, 0.9, 0.3); got != 450 {
		t.Fatalf("meanUptime = %g, want 450", got)
	}
	if mean(0.9, 0.9) != 0 {
		t.Fatal("never-up meanUptime should be 0")
	}
	if mean(0.3, 0.3) != 600 {
		t.Fatal("always-up meanUptime wrong")
	}
}
