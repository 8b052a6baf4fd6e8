package core

import (
	"math"
	"testing"

	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stepTrace builds a single-zone trace from (price, count) pairs.
func stepTrace(pairs ...[2]float64) *trace.Set {
	var prices []float64
	for _, p := range pairs {
		for i := 0; i < int(p[1]); i++ {
			prices = append(prices, p[0])
		}
	}
	return trace.MustNewSet(trace.NewSeries("z", 0, prices))
}

// drive runs a machine with the given policy over the trace and returns
// the result, with generous deadline so the guard stays out of the way.
func drive(t *testing.T, set *trace.Set, pol sim.CheckpointPolicy, bid float64, work int64) *sim.Result {
	t.Helper()
	cfg := sim.Config{
		Trace:          set,
		Work:           work,
		Deadline:       set.Duration() - trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		Delay:          market.FixedDelay(0),
		Seed:           1,
	}
	res, err := sim.Run(cfg, SingleZone(pol, bid, 0))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPeriodicExactlyOncePerBillingHour(t *testing.T) {
	set := stepTrace([2]float64{0.30, 12 * 20})
	res := drive(t, set, NewPeriodic(), 0.81, 5*trace.Hour)
	// 5 hours of work + 4-5 checkpoints of 300 s: the run spans just
	// over five billing hours; each completed hour ends with exactly
	// one checkpoint except possibly the final partial one.
	if res.Checkpoints < 4 || res.Checkpoints > 6 {
		t.Fatalf("checkpoints = %d, want ≈ 5", res.Checkpoints)
	}
	if res.ProviderKills != 0 {
		t.Fatalf("kills = %d", res.ProviderKills)
	}
}

func TestThresholdPriceCondition(t *testing.T) {
	// Price rises from 0.30 to 0.60 (above PriceThresh = (0.30+0.81)/2
	// ≈ 0.56) at sample 24 and stays below the bid: condition 1 fires
	// exactly there. No kills.
	set := stepTrace([2]float64{0.30, 24}, [2]float64{0.60, 12 * 8})
	pol := NewThreshold()
	res := drive(t, set, pol, 0.81, 4*trace.Hour)
	if res.Checkpoints == 0 {
		t.Fatal("threshold condition 1 never fired")
	}
	if res.ProviderKills != 0 {
		t.Fatalf("kills = %d", res.ProviderKills)
	}
}

func TestThresholdIgnoresSmallRises(t *testing.T) {
	// A rise that stays below PriceThresh must not trigger condition 1,
	// and a full day of always-up history makes TimeThresh (the mean
	// uptime) a whole day — longer than the run, so condition 2 stays
	// silent too.
	set := stepTrace([2]float64{0.30, 12 * 24}, [2]float64{0.30, 24}, [2]float64{0.35, 12 * 8})
	hist := set.Slice(0, 24*trace.Hour)
	run := set.Slice(24*trace.Hour, set.End())
	cfg := sim.Config{
		Trace: run, History: hist,
		Work: 4 * trace.Hour, Deadline: 9 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	res, err := sim.Run(cfg, SingleZone(NewThreshold(), 0.81, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints != 0 {
		t.Fatalf("checkpoints = %d on a sub-threshold rise", res.Checkpoints)
	}
}

func TestThresholdTimeCondition(t *testing.T) {
	// History alternates up (1 h) / down (1 h) at bid 0.81, so the mean
	// uptime (TimeThresh) ≈ 1 h. During the run the price stays low, so
	// only condition 2 fires — roughly once per ~1 h of uptime.
	var pairs [][2]float64
	for i := 0; i < 6; i++ {
		pairs = append(pairs, [2]float64{0.30, 12}, [2]float64{2.00, 12})
	}
	pairs = append(pairs, [2]float64{0.30, 12 * 10})
	set := stepTrace(pairs...)
	run := set.Slice(12*trace.Hour, set.End())
	hist := set.Slice(0, 12*trace.Hour)
	cfg := sim.Config{
		Trace:          run,
		History:        hist,
		Work:           4 * trace.Hour,
		Deadline:       9 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		Delay:          market.FixedDelay(0),
		Seed:           1,
	}
	res, err := sim.Run(cfg, SingleZone(NewThreshold(), 0.81, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints < 2 {
		t.Fatalf("condition 2 checkpoints = %d, want a few over 4 h with ≈1 h threshold", res.Checkpoints)
	}
}

// CheckpointCondition runs on every step of every Threshold run, so its
// zone scan and S_min must not allocate.
func TestThresholdCheckpointConditionAllocFree(t *testing.T) {
	prices := make([]float64, 12*24)
	for i := range prices {
		prices[i] = 0.30 + 0.01*float64(i%7)
	}
	series := make([]*trace.Series, 3)
	for z := range series {
		series[z] = trace.NewSeries(string(rune('a'+z)), 0, prices)
	}
	set := trace.MustNewSet(series...)
	cfg := sim.Config{
		Trace: set.Slice(12*trace.Hour, set.End()), History: set.Slice(0, 12*trace.Hour),
		Work: 8 * trace.Hour, Deadline: 11 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	pol := NewThreshold()
	m, err := sim.NewMachine(cfg, Redundant(pol, 0.81, []int{0, 1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	env := m.Env()
	if !env.AnyUp() {
		t.Fatal("no zone up to scan")
	}
	if allocs := testing.AllocsPerRun(100, func() { pol.CheckpointCondition(env) }); allocs != 0 {
		t.Fatalf("Threshold.CheckpointCondition allocates %v times per call", allocs)
	}
}

func TestLargeBidRidesOutShortSpike(t *testing.T) {
	// A 20-minute spike above L in the middle of an hour: not near the
	// hour end, so Large-bid neither checkpoints nor releases and pays
	// the hour at its (low) start price.
	// Generous deadline keeps the engine's pre-guard insurance
	// checkpoint out of the 4-hour run.
	set := stepTrace([2]float64{0.30, 3}, [2]float64{2.0, 4}, [2]float64{0.30, 12 * 12})
	pol := NewLargeBid(0.81)
	cfg := sim.Config{
		Trace: set, Work: 4 * trace.Hour, Deadline: 10 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	res, err := sim.Run(cfg, sim.Strategy(NewStatic("lb", sim.RunSpec{Bid: LargeBidAmount, Zones: []int{0}, Policy: pol})))
	if err != nil {
		t.Fatal(err)
	}
	if res.UserReleases != 0 || res.ProviderKills != 0 {
		t.Fatalf("short spike caused releases=%d kills=%d", res.UserReleases, res.ProviderKills)
	}
	if res.FinishTime != 4*trace.Hour {
		t.Fatalf("finish = %d", res.FinishTime)
	}
}

func TestLargeBidReleasesAtHourEndDuringLongSpike(t *testing.T) {
	// The price jumps above L mid-hour and stays there for 3 hours:
	// Large-bid checkpoints near the end of the current paid hour,
	// releases, waits out the spike, and restarts.
	set := stepTrace([2]float64{0.30, 6}, [2]float64{2.0, 12 * 3}, [2]float64{0.30, 12 * 10})
	pol := NewLargeBid(0.81)
	cfg := sim.Config{
		Trace: set, Work: 4 * trace.Hour, Deadline: 10 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	res, err := sim.Run(cfg, NewStatic("lb", sim.RunSpec{Bid: LargeBidAmount, Zones: []int{0}, Policy: pol}))
	if err != nil {
		t.Fatal(err)
	}
	if res.UserReleases != 1 {
		t.Fatalf("releases = %d, want 1", res.UserReleases)
	}
	if res.Checkpoints == 0 {
		t.Fatal("no pre-release checkpoint")
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 after the spike", res.Restarts)
	}
	if res.ProviderKills != 0 {
		t.Fatalf("kills = %d (bid $100 should never be outbid here)", res.ProviderKills)
	}
	// The spike hours are never paid: the instance was released after
	// its first (cheap) hour, so no ledger entry exceeds $0.30.
	for _, e := range res.Ledger.Entries {
		if !e.OnDemand && e.Rate > 0.30 {
			t.Fatalf("paid a spike hour at %g", e.Rate)
		}
	}
}

func TestNaiveLargeBidPaysSpikeHours(t *testing.T) {
	set := stepTrace([2]float64{0.30, 6}, [2]float64{2.0, 12 * 3}, [2]float64{0.30, 12 * 10})
	cfg := sim.Config{
		Trace: set, Work: 4 * trace.Hour, Deadline: 10 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	res, err := sim.Run(cfg, NewStatic("naive", sim.RunSpec{Bid: LargeBidAmount, Zones: []int{0}, Policy: NewLargeBid(math.Inf(1))}))
	if err != nil {
		t.Fatal(err)
	}
	if res.UserReleases != 0 {
		t.Fatalf("naive variant released %d times", res.UserReleases)
	}
	paidSpike := false
	for _, e := range res.Ledger.Entries {
		if !e.OnDemand && e.Rate >= 2.0 {
			paidSpike = true
		}
	}
	if !paidSpike {
		t.Fatal("naive variant did not pay any spike hour")
	}
}

func TestMarkovDalySchedulesFiniteInterval(t *testing.T) {
	// History alternates below/above the bid: finite E[T_u] → a finite
	// Daly interval → periodic-ish checkpoints during the calm run.
	var pairs [][2]float64
	for i := 0; i < 24; i++ {
		pairs = append(pairs, [2]float64{0.30, 6}, [2]float64{2.00, 6})
	}
	pairs = append(pairs, [2]float64{0.30, 12 * 10})
	set := stepTrace(pairs...)
	hist := set.Slice(0, 24*trace.Hour)
	run := set.Slice(24*trace.Hour, set.End())
	cfg := sim.Config{
		Trace: run, History: hist,
		Work: 4 * trace.Hour, Deadline: 9 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	res, err := sim.Run(cfg, SingleZone(NewMarkovDaly(), 0.81, 0))
	if err != nil {
		t.Fatal(err)
	}
	// E[T_u] ≈ 30 min → Daly interval √(2·300·1800) ≈ 17.3 min: many
	// checkpoints across 4 h.
	if res.Checkpoints < 5 {
		t.Fatalf("markov-daly checkpoints = %d, want many at a short predicted uptime", res.Checkpoints)
	}
}

func TestMarkovDalyNeverCheckpointsWhenUnkillable(t *testing.T) {
	// History constant and far below bid: E[T_u] = ∞ → no scheduled
	// checkpoints; only the engine's pre-guard insurance checkpoint can
	// appear, and with this much slack it never does.
	set := stepTrace([2]float64{0.30, 12 * 40}) // 40 hours flat
	hist := set.Slice(0, 24*trace.Hour)
	run := set.Slice(24*trace.Hour, set.End())
	cfg := sim.Config{
		Trace: run, History: hist,
		Work: 4 * trace.Hour, Deadline: 15 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	res, err := sim.Run(cfg, SingleZone(NewMarkovDaly(), 0.81, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints != 0 {
		t.Fatalf("checkpoints = %d on an unkillable zone", res.Checkpoints)
	}
	if res.FinishTime != run.Start()+4*trace.Hour {
		t.Fatalf("finish = %d", res.FinishTime)
	}
}
