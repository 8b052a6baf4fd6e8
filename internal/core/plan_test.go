package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// planRequest builds a small, fast planning request over the shared
// estimation history.
func planRequest(hist *trace.Set) PlanRequest {
	return PlanRequest{
		History:        hist,
		Work:           8 * trace.Hour,
		Deadline:       12 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		MaxZones:       2,
		Bids:           []float64{0.47, 0.81, 1.67},
	}
}

// TestRankValidation exercises every request rejection.
func TestRankValidation(t *testing.T) {
	hist := estimationHistory(17)
	ev := NewEvaluator()
	cases := []struct {
		name string
		mut  func(*PlanRequest)
	}{
		{"nil history", func(r *PlanRequest) { r.History = nil }},
		{"zero work", func(r *PlanRequest) { r.Work = 0 }},
		{"negative work", func(r *PlanRequest) { r.Work = -1 }},
		{"deadline below work", func(r *PlanRequest) { r.Deadline = r.Work - 1 }},
		{"negative on-demand rate", func(r *PlanRequest) { r.OnDemandRate = -2.4 }},
		{"NaN on-demand rate", func(r *PlanRequest) { r.OnDemandRate = math.NaN() }},
		{"infinite on-demand rate", func(r *PlanRequest) { r.OnDemandRate = math.Inf(1) }},
		{"negative checkpoint cost", func(r *PlanRequest) { r.CheckpointCost = -1 }},
		{"negative restart cost", func(r *PlanRequest) { r.RestartCost = -300 }},
	}
	for _, tc := range cases {
		req := planRequest(hist)
		tc.mut(&req)
		if _, err := ev.Rank(req); err == nil {
			t.Errorf("%s: Rank accepted an invalid request", tc.name)
		}
	}
}

// TestAttachRefusesUnpricedRates pins that a stream scorer refuses the
// rates and costs Rank refuses: a NaN on-demand rate once passed the
// negative test and ranked plans of NaN predicted cost first.
func TestAttachRefusesUnpricedRates(t *testing.T) {
	hist := estimationHistory(31)
	for name, edit := range map[string]func(*StreamConfig){
		"NaN on-demand rate":       func(c *StreamConfig) { c.OnDemandRate = math.NaN() },
		"infinite on-demand rate":  func(c *StreamConfig) { c.OnDemandRate = math.Inf(1) },
		"negative on-demand rate":  func(c *StreamConfig) { c.OnDemandRate = -2.4 },
		"negative checkpoint cost": func(c *StreamConfig) { c.CheckpointCost = -1 },
		"negative restart cost":    func(c *StreamConfig) { c.RestartCost = -300 },
	} {
		cfg := streamConfigFor(hist)
		edit(&cfg)
		if _, err := NewStreamEvaluator(nil, cfg); err == nil {
			t.Errorf("%s: the stream attached a scorer", name)
		}
	}
}

// FuzzPlanRequest drives Rank from the library boundary: whatever
// request it accepts, every plan of the full grid has a predicted cost
// that is a number, and the table is ordered best-first.
func FuzzPlanRequest(f *testing.F) {
	f.Add(int64(6*trace.Hour), int64(9*trace.Hour), int64(300), int64(300), 0.0, 0.47, 3.07, 2, "markov-daly:span=6h")
	f.Add(int64(6*trace.Hour), int64(9*trace.Hour), int64(300), int64(300), math.NaN(), 0.47, 3.07, 3, "periodic")
	f.Add(int64(trace.Hour), int64(2*trace.Hour), int64(-300), int64(0), math.Inf(1), 0.81, 0.27, 1, "markov-daly:order=1")
	f.Add(int64(1), int64(1<<62), int64(1<<62), int64(1<<62), 1e308, 1e-300, 1e300, 9, "edge")
	hist := estimationHistory(31)
	ev := &Evaluator{Workers: 1}
	f.Fuzz(func(t *testing.T, work, deadline, tc, tr int64, odRate, bid1, bid2 float64, maxZones int, cand string) {
		req := PlanRequest{
			History: hist, Work: work, Deadline: deadline, CheckpointCost: tc, RestartCost: tr,
			OnDemandRate: odRate, Bids: []float64{bid1, bid2}, MaxZones: maxZones,
		}
		if pol, err := ParsePolicy(cand); err == nil {
			req.Candidates = []PolicySpec{{Family: FamilyPeriodic}, pol}
		}
		plans, err := ev.Rank(req)
		if err != nil {
			return
		}
		cands := 2
		if req.Candidates == nil {
			cands = len(DefaultAdaptiveCandidates())
		}
		if want := cands * 2 * min(max(maxZones, 0), hist.NumZones()); maxZones > 0 && len(plans) != want {
			t.Fatalf("%d plans, want %d", len(plans), want)
		}
		for i, p := range plans {
			if math.IsNaN(p.PredictedCost) {
				t.Fatalf("plan %d of %+v has a NaN predicted cost", i, req)
			}
			if i > 0 && p.PredictedCost < plans[i-1].PredictedCost {
				t.Fatalf("plan %d costs %g, below plan %d's %g", i, p.PredictedCost, i-1, plans[i-1].PredictedCost)
			}
		}
	})
}

// TestNonFiniteBidsRefused pins that every entry point taking a
// caller's bid grid and returning an error refuses NaN and infinite
// bids instead of replaying them: a NaN bid once passed addPerm's
// positivity test and panicked Rank in the uptime solve.
func TestNonFiniteBidsRefused(t *testing.T) {
	hist := estimationHistory(31)
	for _, bids := range [][]float64{{math.NaN(), 3.07}, {math.Inf(1)}, {0.47, math.Inf(-1)}} {
		req := PlanRequest{History: hist, Work: 6 * trace.Hour, Deadline: 9 * trace.Hour, Bids: bids}
		if _, err := NewEvaluator().Rank(req); err == nil {
			t.Errorf("Rank accepted bids %v", bids)
		}
		cfg := streamConfigFor(hist)
		cfg.Bids = bids
		if _, err := NewStreamGrid(nil, cfg); err == nil {
			t.Errorf("NewStreamGrid accepted bids %v", bids)
		}
	}
}

// TestRankShape checks the grid size, the best-first ordering and the
// plan fields' internal consistency.
func TestRankShape(t *testing.T) {
	hist := estimationHistory(17)
	ev := NewEvaluator()
	req := planRequest(hist)
	plans, err := ev.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	// policies × zone degrees × bids
	if want := 2 * 2 * 3; len(plans) != want {
		t.Fatalf("got %d plans, want %d", len(plans), want)
	}
	for i := 1; i < len(plans); i++ {
		if plans[i].PredictedCost < plans[i-1].PredictedCost {
			t.Fatalf("plans not sorted by cost: plan %d (%.4f) < plan %d (%.4f)",
				i, plans[i].PredictedCost, i-1, plans[i-1].PredictedCost)
		}
	}
	for i, p := range plans {
		if len(p.Zones) == 0 || len(p.Zones) > 2 {
			t.Errorf("plan %d: bad zone count %d", i, len(p.Zones))
		}
		if p.Policy != "periodic" && p.Policy != "markov-daly" {
			t.Errorf("plan %d: unknown policy %q", i, p.Policy)
		}
		if p.PredictedCost < 0 || math.IsNaN(p.PredictedCost) {
			t.Errorf("plan %d: bad predicted cost %v", i, p.PredictedCost)
		}
		if p.DeadlineMargin != req.Deadline-p.PredictedFinish {
			t.Errorf("plan %d: margin %d inconsistent with finish %d", i, p.DeadlineMargin, p.PredictedFinish)
		}
	}
	var progressed bool
	for _, p := range plans {
		if p.ProgressRate > 0 {
			progressed = true
		}
	}
	if !progressed {
		t.Fatal("no plan measured any progress; scenario too tame")
	}
}

// TestRankDeterministic is the planning service's reproducibility
// contract: identical requests yield deeply equal plan tables at any
// worker count.
func TestRankDeterministic(t *testing.T) {
	hist := estimationHistory(17)
	var want []Plan
	for _, workers := range []int{1, 0, 2, 8} {
		ev := &Evaluator{Workers: workers}
		got, err := ev.Rank(planRequest(hist))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: plans diverge from serial run", workers)
		}
	}
}

// TestRankOnDemandRateScalesFallback checks that the request's
// on-demand rate flows into predictions: with a progress-free history
// (prices always above every bid), every plan's predicted cost is the
// pure on-demand cost at the requested rate.
func TestRankOnDemandRateScalesFallback(t *testing.T) {
	// Flat $9 prices: all bids in the grid below are outbid forever.
	n := int(12 * trace.Hour / trace.DefaultStep)
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = 9.0
	}
	hist := trace.MustNewSet(
		&trace.Series{Zone: "a", Epoch: 0, Step: trace.DefaultStep, Prices: append([]float64(nil), prices...)},
		&trace.Series{Zone: "b", Epoch: 0, Step: trace.DefaultStep, Prices: append([]float64(nil), prices...)},
	)
	ev := NewEvaluator()
	for _, rate := range []float64{2.40, 5.00} {
		req := planRequest(hist)
		req.OnDemandRate = rate
		plans, err := ev.Rank(req)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Ceil(float64(req.Work)/float64(trace.Hour)) * rate
		for i, p := range plans {
			if p.ProgressRate != 0 {
				t.Fatalf("plan %d progressed despite unreachable bids", i)
			}
			if p.PredictedCost != want {
				t.Errorf("rate %.2f: plan %d predicted %.2f, want pure on-demand %.2f", rate, i, p.PredictedCost, want)
			}
		}
	}
}
