package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func TestAdaptiveCustomKnobs(t *testing.T) {
	hist, run := window(tracegen.LowVolatility(47), 5, 2)
	cfg := testConfig(hist, run, 300)
	a := NewAdaptive()
	a.Bids = []float64{0.47, 0.87}
	a.MaxZones = 2
	a.EstimationWindow = 6 * trace.Hour
	a.Candidates = []PolicySpec{{Family: FamilyPeriodic}}
	res, err := sim.Run(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.DeadlineMet {
		t.Fatalf("custom adaptive failed: %+v", res)
	}
	if a.chosen.Bid != 0.47 && a.chosen.Bid != 0.87 {
		t.Fatalf("chosen bid %g outside the custom grid", a.chosen.Bid)
	}
	if len(a.chosen.Zones) > 2 {
		t.Fatalf("chosen N=%d above MaxZones", len(a.chosen.Zones))
	}
	if a.chosen.Policy.Name() != "periodic" {
		t.Fatalf("chosen policy %q outside the custom candidates", a.chosen.Policy.Name())
	}
}

func TestAdaptiveRetainsNearOptimalCurrentSpec(t *testing.T) {
	// In a calm market every bid above the floor predicts nearly the
	// same cost, so once chosen, the configuration should persist: no
	// churn (switches) across the run.
	hist, run := window(tracegen.LowVolatility(53), 6, 2)
	cfg := testConfig(hist, run, 300)
	res, err := sim.Run(cfg, NewAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	if res.SpecSwitches > 2 {
		t.Fatalf("adaptive churned %d switches in a calm market", res.SpecSwitches)
	}
}
