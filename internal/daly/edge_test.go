package daly

import (
	"math"
	"testing"
)

// TestYoungEdges covers zero/negative/infinite inputs and the formula
// on a hand-computable point.
func TestYoungEdges(t *testing.T) {
	cases := []struct {
		name        string
		delta, mtbf float64
		want        float64
	}{
		{"zero delta", 0, 3600, 0},
		{"negative delta", -1, 3600, 0},
		{"zero mtbf", 300, 0, 0},
		{"negative mtbf", 300, -10, 0},
		{"infinite mtbf", 300, math.Inf(1), math.Inf(1)},
		{"exact", 50, 10000, 1000}, // √(2·50·10000) = 1000
	}
	for _, tc := range cases {
		if got := Young(tc.delta, tc.mtbf); got != tc.want {
			t.Errorf("%s: Young(%g, %g) = %g, want %g", tc.name, tc.delta, tc.mtbf, got, tc.want)
		}
	}
}

// TestOptimalEdges covers the guard cases and the δ vs 2M boundary the
// formula switches on.
func TestOptimalEdges(t *testing.T) {
	if got := Optimal(0, 3600); got != 0 {
		t.Errorf("Optimal(0, 3600) = %g, want 0", got)
	}
	if got := Optimal(300, 0); got != 0 {
		t.Errorf("Optimal(300, 0) = %g, want 0", got)
	}
	if got := Optimal(300, math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("Optimal(300, +Inf) = %g, want +Inf", got)
	}
	// At and past the boundary δ >= 2M the interval degenerates to M.
	const mtbf = 500.0
	if got := Optimal(2*mtbf, mtbf); got != mtbf {
		t.Errorf("Optimal at δ=2M: %g, want %g", got, mtbf)
	}
	if got := Optimal(2*mtbf+1, mtbf); got != mtbf {
		t.Errorf("Optimal past δ=2M: %g, want %g", got, mtbf)
	}
	// Just under the boundary the higher-order branch applies and must
	// stay non-negative and finite.
	got := Optimal(2*mtbf-1e-6, mtbf)
	if got < 0 || math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("Optimal just under δ=2M: %g, want finite non-negative", got)
	}
}

// TestOptimalMatchesYoungForSmallOverhead checks Daly's refinement
// converges to Young's √(2δM) as δ/M → 0.
func TestOptimalMatchesYoungForSmallOverhead(t *testing.T) {
	const mtbf = 100_000.0
	for _, delta := range []float64{1, 10, 60} {
		y := Young(delta, mtbf)
		o := Optimal(delta, mtbf)
		if rel := math.Abs(o-y) / y; rel > 0.05 {
			t.Errorf("δ=%g: Optimal %g deviates %.1f%% from Young %g", delta, o, rel*100, y)
		}
	}
}

// TestExpectedWasteMinimum checks the waste guards and that Young's
// interval sits at the first-order model's minimum: perturbing τ in
// either direction never reduces the waste.
func TestExpectedWasteMinimum(t *testing.T) {
	if !math.IsInf(expectedWaste(0, 300, 3600), 1) {
		t.Error("zero tau must waste infinitely")
	}
	if !math.IsInf(expectedWaste(-5, 300, 3600), 1) {
		t.Error("negative tau must waste infinitely")
	}
	if !math.IsInf(expectedWaste(600, 300, 0), 1) {
		t.Error("zero mtbf must waste infinitely")
	}
	const delta, mtbf = 300.0, 36_000.0
	tau := Young(delta, mtbf)
	at := expectedWaste(tau, delta, mtbf)
	for _, factor := range []float64{0.5, 0.9, 1.1, 2.0} {
		if w := expectedWaste(tau*factor, delta, mtbf); w < at {
			t.Errorf("waste at %.2f·τ* (%g) below waste at τ* (%g): τ* is not the minimum", factor, w, at)
		}
	}
	// Daly's interval must sit within a few percent of that minimum too.
	if w := expectedWaste(Optimal(delta, mtbf), delta, mtbf); w > at*1.05 {
		t.Errorf("Optimal's waste %g is more than 5%% above the minimum %g", w, at)
	}
}
