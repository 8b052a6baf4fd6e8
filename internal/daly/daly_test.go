package daly

import (
	"math"
	"testing"
	"testing/quick"
)

func TestYoung(t *testing.T) {
	// √(2·300·7200) ≈ 2078.46
	got := Young(300, 7200)
	want := math.Sqrt(2 * 300 * 7200)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Young = %g, want %g", got, want)
	}
	if Young(0, 100) != 0 || Young(100, 0) != 0 {
		t.Fatal("Young should be 0 for degenerate inputs")
	}
	if !math.IsInf(Young(300, math.Inf(1)), 1) {
		t.Fatal("Young with infinite MTBF should be +Inf")
	}
}

func TestOptimalHigherOrderExceedsNothingWeird(t *testing.T) {
	delta, mtbf := 300.0, 7200.0
	tau := Optimal(delta, mtbf)
	if tau <= 0 {
		t.Fatalf("Optimal = %g", tau)
	}
	// Daly's refinement stays within a factor of the Young estimate.
	y := Young(delta, mtbf)
	if tau > 1.5*y || tau < 0.5*y {
		t.Fatalf("Optimal = %g, far from Young = %g", tau, y)
	}
}

func TestOptimalLargeDeltaClamp(t *testing.T) {
	// δ ≥ 2M: interval equals the MTBF.
	if got := Optimal(1000, 400); got != 400 {
		t.Fatalf("Optimal clamp = %g, want 400", got)
	}
}

func TestOptimalInfiniteMTBF(t *testing.T) {
	if !math.IsInf(Optimal(300, math.Inf(1)), 1) {
		t.Fatal("Optimal with infinite MTBF should be +Inf")
	}
}

func TestOptimalDegenerate(t *testing.T) {
	if Optimal(0, 100) != 0 || Optimal(100, -1) != 0 {
		t.Fatal("Optimal should be 0 for degenerate inputs")
	}
}

// Young's interval is the exact minimiser of the first-order waste
// model δ/τ + τ/(2M): no nearby interval may have lower waste.
func TestYoungMinimisesWasteProperty(t *testing.T) {
	f := func(dRaw, mRaw uint16) bool {
		delta := 10 + float64(dRaw%2000) // 10..2009 s
		mtbf := delta*2.5 + float64(mRaw%5000)
		tau := Young(delta, mtbf)
		w := expectedWaste(tau, delta, mtbf)
		for _, factor := range []float64{0.5, 0.75, 1.25, 2} {
			if expectedWaste(tau*factor, delta, mtbf) < w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// In the small-overhead regime (δ ≪ M) Daly's higher-order estimate
// converges to Young's, so its first-order waste is near-minimal too.
func TestOptimalNearWasteMinimumSmallOverhead(t *testing.T) {
	f := func(dRaw, mRaw uint32) bool {
		delta := 10 + float64(dRaw%500)         // 10..509 s
		mtbf := delta*20 + float64(mRaw%100000) // δ ≤ M/20
		tau := Optimal(delta, mtbf)
		w := expectedWaste(tau, delta, mtbf)
		wOpt := expectedWaste(Young(delta, mtbf), delta, mtbf)
		return w <= wOpt*1.05
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The paper's §4.2 observation: the redundancy scheme's combined E[T_u]
// is larger, so the optimal checkpoint frequency decreases (interval
// grows) as N increases.
func TestIntervalGrowsWithMTBF(t *testing.T) {
	delta := 300.0
	prev := 0.0
	for _, mtbf := range []float64{3600, 7200, 10800} {
		tau := Optimal(delta, mtbf)
		if tau <= prev {
			t.Fatalf("interval did not grow: %g after %g", tau, prev)
		}
		prev = tau
	}
}

func TestExpectedWasteEdges(t *testing.T) {
	if !math.IsInf(expectedWaste(0, 300, 1000), 1) {
		t.Fatal("zero interval should have infinite waste")
	}
	if !math.IsInf(expectedWaste(100, 300, 0), 1) {
		t.Fatal("zero MTBF should have infinite waste")
	}
}

// expectedWaste returns the expected fraction of wall-clock time lost to
// checkpointing and rework for a given checkpoint interval tau,
// checkpoint cost delta and MTBF mtbf, under the standard first-order
// model: waste ≈ δ/τ + τ/(2M). Useful for validating that Optimal and
// Young indeed sit near the minimum.
func expectedWaste(tau, delta, mtbf float64) float64 {
	if tau <= 0 || mtbf <= 0 {
		return math.Inf(1)
	}
	return delta/tau + tau/(2*mtbf)
}
