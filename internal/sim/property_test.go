package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// randomSet builds an adversarial random multi-zone trace: arbitrary
// price levels, plateaus, cliffs and spikes, cent-quantised.
func randomSet(rng *rand.Rand, zones, samples int) *trace.Set {
	series := make([]*trace.Series, zones)
	for z := 0; z < zones; z++ {
		prices := make([]float64, samples)
		p := 0.27 + rng.Float64()*2
		for i := range prices {
			switch rng.IntN(10) {
			case 0: // cliff to a new level
				p = 0.27 + rng.Float64()*3
			case 1: // spike
				p = 2.4 + rng.Float64()*18
			case 2, 3: // drift
				p += (rng.Float64() - 0.5) * 0.2
				if p < 0.27 {
					p = 0.27
				}
			}
			prices[i] = math.Round(p*100) / 100
		}
		series[z] = trace.NewSeries(string(rune('a'+z)), 0, prices)
	}
	return trace.MustNewSet(series...)
}

// chaoticPolicy makes checkpoint decisions pseudo-randomly, exercising
// checkpoint interleavings no sensible policy would produce.
type chaoticPolicy struct {
	rng *rand.Rand
}

func (c *chaoticPolicy) Name() string                { return "chaotic" }
func (c *chaoticPolicy) Reset(*Env)                  {}
func (c *chaoticPolicy) ScheduleNextCheckpoint(*Env) {}
func (c *chaoticPolicy) CheckpointCondition(*Env) bool {
	return c.rng.IntN(4) == 0
}

// TestDeadlineAlwaysMetProperty is the central guarantee: across random
// adversarial markets, policies, bids and redundancy degrees, every run
// completes within its deadline.
func TestDeadlineAlwaysMetProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(2024, 6))
	for trial := 0; trial < 200; trial++ {
		zones := 1 + rng.IntN(3)
		set := randomSet(rng, zones, 12*40) // 40 hours
		work := trace.Hour * int64(2+rng.IntN(8))
		slack := 1 + rng.Float64()*9 // 1..10 hours of slack
		deadline := work + int64(slack*float64(trace.Hour))
		tc := int64(rng.IntN(4)) * 300
		cfg := Config{
			Trace:          set,
			Work:           work,
			Deadline:       deadline,
			CheckpointCost: tc,
			RestartCost:    tc,
			Delay:          market.MeasuredDelay{Mu: math.Log(270), Sigma: 0.5, Min: 143, Max: 880},
			Seed:           uint64(trial),
			RecordTimeline: true, // audited below
		}
		zoneIdx := make([]int, 1+rng.IntN(zones))
		for i := range zoneIdx {
			zoneIdx[i] = i
		}
		spec := RunSpec{
			Bid:    0.27 + rng.Float64()*3,
			Zones:  zoneIdx,
			Policy: &chaoticPolicy{rng: rand.New(rand.NewPCG(uint64(trial), 1))},
		}
		res, err := Run(cfg, static{spec})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Completed {
			t.Fatalf("trial %d: not completed", trial)
		}
		if !res.DeadlineMet {
			t.Fatalf("trial %d: deadline missed (finish %d, deadline %d, work %d, tc %d, bid %.2f, zones %d)",
				trial, res.FinishTime, deadline, work, tc, spec.Bid, len(zoneIdx))
		}
		if res.Cost < 0 {
			t.Fatalf("trial %d: negative cost", trial)
		}
		if res.Committed != work {
			t.Fatalf("trial %d: committed %d != work %d at completion", trial, res.Committed, work)
		}
		// Independent billing verification over the same run.
		if err := auditResult(cfg, res); err != nil {
			t.Fatalf("trial %d: billing audit failed: %v", trial, err)
		}
	}
}

// TestDeterminism: identical configurations produce identical results.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	set := randomSet(rng, 3, 12*30)
	cfg := Config{
		Trace: set, Work: 5 * trace.Hour, Deadline: 9 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Seed: 42,
	}
	spec := RunSpec{Bid: 0.81, Zones: []int{0, 1, 2}, Policy: &hourly{interval: trace.Hour}}
	a, err := Run(cfg, static{spec})
	if err != nil {
		t.Fatal(err)
	}
	spec2 := RunSpec{Bid: 0.81, Zones: []int{0, 1, 2}, Policy: &hourly{interval: trace.Hour}}
	b, err := Run(cfg, static{spec2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.FinishTime != b.FinishTime || a.Checkpoints != b.Checkpoints ||
		a.ProviderKills != b.ProviderKills || a.Restarts != b.Restarts {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestLedgerConsistency: the result's cost decomposition always matches
// the ledger, and no spot hour is ever charged above the bid.
func TestLedgerConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 2))
	for trial := 0; trial < 50; trial++ {
		set := randomSet(rng, 2, 12*30)
		bid := 0.27 + rng.Float64()*3
		cfg := Config{
			Trace: set, Work: 4 * trace.Hour, Deadline: 8 * trace.Hour,
			CheckpointCost: 300, RestartCost: 300, Seed: uint64(trial),
		}
		res, err := Run(cfg, static{RunSpec{Bid: bid, Zones: []int{0, 1}, Policy: &hourly{interval: trace.Hour}}})
		if err != nil {
			t.Fatal(err)
		}
		var spot, od float64
		for _, e := range res.Ledger.Entries {
			if e.OnDemand {
				od += e.Rate
				if e.Rate != market.OnDemandRate {
					t.Fatalf("trial %d: on-demand hour at %g", trial, e.Rate)
				}
				continue
			}
			spot += e.Rate
			// Hour-start pricing: a spot hour begins only while the
			// price is within the bid, so no charged hour can exceed it.
			if e.Rate > bid+1e-9 {
				t.Fatalf("trial %d: charged %g above bid %g", trial, e.Rate, bid)
			}
		}
		if math.Abs(spot-res.SpotCost) > 1e-9 || math.Abs(od-res.OnDemandCost) > 1e-9 {
			t.Fatalf("trial %d: split mismatch", trial)
		}
		if math.Abs(res.Cost-(res.SpotCost+res.OnDemandCost)) > 1e-9 {
			t.Fatalf("trial %d: total mismatch", trial)
		}
	}
}

// TestMachineStepEquivalence: stepping a Machine manually produces the
// same result as Run.
func TestMachineStepEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	set := randomSet(rng, 2, 12*30)
	cfg := Config{
		Trace: set, Work: 4 * trace.Hour, Deadline: 8 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Seed: 3,
	}
	mkSpec := func() RunSpec {
		return RunSpec{Bid: 1.2, Zones: []int{0, 1}, Policy: &hourly{interval: trace.Hour}}
	}
	want, err := Run(cfg, static{mkSpec()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg, static{mkSpec()})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for !m.Done() {
		if !m.HasData() {
			t.Fatal("machine ran out of data")
		}
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 20000 {
			t.Fatal("machine did not terminate")
		}
	}
	got := m.Result()
	if got.Cost != want.Cost || got.FinishTime != want.FinishTime {
		t.Fatalf("machine result %+v != run result %+v", got, want)
	}
}

// TestMachineErrNoData: a machine over an exhausted trace reports
// ErrNoData instead of stepping blindly.
func TestMachineErrNoData(t *testing.T) {
	set := constSet(0.3, 2) // 10 minutes of data
	cfg := Config{
		Trace: set, Work: trace.Hour, Deadline: 2 * trace.Hour,
		CheckpointCost: 0, RestartCost: 0, Delay: market.FixedDelay(0), Seed: 1,
		DisableDeadlineGuard: true,
	}
	m, err := NewMachine(cfg, static{RunSpec{Bid: 1, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	for m.HasData() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Step(); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
	res := m.FinishEstimation()
	if res == nil || res.Completed {
		t.Fatalf("estimation finish = %+v", res)
	}
	// FinishEstimation is idempotent.
	if m.FinishEstimation() != res {
		t.Fatal("FinishEstimation not idempotent")
	}
}

// TestCostMonotoneInWorkProperty: more work never costs less under
// identical market conditions (same policy, bid, seed).
func TestCostMonotoneInWorkProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	for trial := 0; trial < 30; trial++ {
		set := randomSet(rng, 1, 12*40)
		small := Config{
			Trace: set, Work: 2 * trace.Hour, Deadline: 12 * trace.Hour,
			CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(300), Seed: uint64(trial),
		}
		large := small
		large.Work = 6 * trace.Hour
		spec := func() RunSpec {
			return RunSpec{Bid: 1.0, Zones: []int{0}, Policy: &hourly{interval: trace.Hour}}
		}
		a, err := Run(small, static{spec()})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(large, static{spec()})
		if err != nil {
			t.Fatal(err)
		}
		if b.Cost < a.Cost-1e-9 {
			t.Fatalf("trial %d: 6h job (%g) cheaper than 2h job (%g)", trial, b.Cost, a.Cost)
		}
	}
}

// TestPermanentOutage: a market that dies permanently mid-run still
// meets the deadline through the guard.
func TestPermanentOutage(t *testing.T) {
	set := stepSet([2]float64{0.30, 30}, [2]float64{50.0, 12 * 20})
	cfg := Config{
		Trace: set, Work: 6 * trace.Hour, Deadline: 10 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	res, err := Run(cfg, static{RunSpec{Bid: 0.81, Zones: []int{0}, Policy: &hourly{interval: trace.Hour}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineMet || !res.SwitchedOnDemand {
		t.Fatalf("outage run: %+v", res)
	}
	// The ~2 h of spot progress before the outage was checkpointed, so
	// the on-demand tail is under the full 6 h.
	if res.OnDemandCost >= 6*market.OnDemandRate {
		t.Fatalf("on-demand tail %g did not benefit from committed progress", res.OnDemandCost)
	}
}

// TestFlappingMarket: price oscillating around the bid every step kills
// and restarts the instance constantly; the run must still complete in
// time, and every interrupted hour must be free.
func TestFlappingMarket(t *testing.T) {
	var prices []float64
	for i := 0; i < 12*30; i++ {
		if i%2 == 0 {
			prices = append(prices, 0.30)
		} else {
			prices = append(prices, 5.00)
		}
	}
	set := trace.MustNewSet(trace.NewSeries("flap", 0, prices))
	cfg := Config{
		Trace: set, Work: 2 * trace.Hour, Deadline: 8 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Delay: market.FixedDelay(0), Seed: 1,
	}
	res, err := Run(cfg, static{RunSpec{Bid: 0.81, Zones: []int{0}, Policy: &hourly{interval: trace.Hour}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineMet {
		t.Fatalf("flapping run missed deadline: %+v", res)
	}
	// Instances die within 5 minutes of coming up: no billing hour ever
	// completes, so the whole spot phase is free.
	if res.SpotCost != 0 {
		t.Fatalf("flapping spot cost = %g, want 0 (all partial hours provider-killed)", res.SpotCost)
	}
	if res.ProviderKills == 0 {
		t.Fatal("no kills recorded in a flapping market")
	}
}
