package vecar

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// causalPair synthesises x (autonomous AR(1)) and y, which depends on
// x's lag with the given strength.
func causalPair(n int, strength float64, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 17))
	x := make([]float64, n)
	y := make([]float64, n)
	x[0], y[0] = 0.5, 0.5
	for t := 1; t < n; t++ {
		x[t] = 0.1 + 0.6*x[t-1] + 0.05*rng.NormFloat64()
		y[t] = 0.1 + 0.5*y[t-1] + strength*x[t-1] + 0.05*rng.NormFloat64()
	}
	return [][]float64{x, y}
}

func TestGrangerDetectsCausality(t *testing.T) {
	series := causalPair(2000, 0.4, 1)
	// x (index 0) causes y (index 1): strongly significant.
	xy, err := grangerTest(series, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !xy.Significant(0.001) {
		t.Fatalf("x→y not detected: F=%g p=%g", xy.F, xy.P)
	}
	// y does not cause x.
	yx, err := grangerTest(series, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if yx.Significant(0.001) {
		t.Fatalf("spurious y→x: F=%g p=%g", yx.F, yx.P)
	}
	if xy.RSSRestricted < xy.RSSUnrestricted {
		t.Fatal("restricted fit cannot beat the unrestricted one")
	}
}

func TestGrangerIndependentSeries(t *testing.T) {
	series := causalPair(2000, 0, 2) // strength 0: independent
	falsePositives := 0
	results, err := GrangerMatrix(series, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, g := range results {
		if g.Significant(0.001) {
			falsePositives++
		}
	}
	if falsePositives == 2 {
		t.Fatal("both directions spuriously significant on independent series")
	}
}

func TestGrangerErrors(t *testing.T) {
	series := causalPair(100, 0.2, 3)
	if _, err := grangerTest(series, 0, 0, 1); err == nil {
		t.Fatal("accepted cause == effect")
	}
	if _, err := grangerTest(series, 5, 0, 1); err == nil {
		t.Fatal("accepted out-of-range index")
	}
	if _, err := grangerTest(series, 1, 0, 0); err == nil {
		t.Fatal("accepted lag 0")
	}
	tiny := causalPair(4, 0.2, 4)
	if _, err := grangerTest(tiny, 1, 0, 2); err == nil {
		t.Fatal("accepted too-short series")
	}
}

func TestGrangerConstantSeries(t *testing.T) {
	// A constant effect series: perfect fit both ways → p = 1, no
	// division by zero.
	x := make([]float64, 200)
	y := make([]float64, 200)
	rng := rand.New(rand.NewPCG(9, 9))
	for t := range x {
		x[t] = rng.Float64()
		y[t] = 0.3
	}
	g, err := grangerTest([][]float64{x, y}, 1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.P != 1 {
		t.Fatalf("constant-series p = %g, want 1", g.P)
	}
}

func TestGrangerMatrixThreeSeries(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	n := 1500
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	a[0], b[0], c[0] = 0.5, 0.5, 0.5
	for t := 1; t < n; t++ {
		a[t] = 0.1 + 0.6*a[t-1] + 0.05*rng.NormFloat64()
		b[t] = 0.1 + 0.6*b[t-1] + 0.3*a[t-1] + 0.05*rng.NormFloat64()
		c[t] = 0.1 + 0.6*c[t-1] + 0.05*rng.NormFloat64()
	}
	results, err := GrangerMatrix([][]float64{a, b, c}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	for _, g := range results {
		isTrueEdge := g.Cause == 0 && g.Effect == 1
		if isTrueEdge && !g.Significant(0.001) {
			t.Fatalf("true edge a→b missed: p=%g", g.P)
		}
		if !isTrueEdge && g.Significant(1e-6) {
			t.Fatalf("spurious edge %d→%d: p=%g", g.Cause, g.Effect, g.P)
		}
	}
}

// grangerTest tests whether series[cause] Granger-causes
// series[effect] at the given lag, conditioning on every series' lags
// (the standard VAR-based formulation).
func grangerTest(series [][]float64, effect, cause, lag int) (GrangerResult, error) {
	k := len(series)
	if effect < 0 || effect >= k || cause < 0 || cause >= k {
		return GrangerResult{}, fmt.Errorf("vecar: series index out of range")
	}
	if cause == effect {
		return GrangerResult{}, fmt.Errorf("vecar: cause and effect must differ")
	}
	if err := checkGranger(series, lag); err != nil {
		return GrangerResult{}, err
	}
	// Unrestricted: all series' lags. Restricted: drop the cause's.
	ne := normalEquations(series, lag)
	rssU, err := equationRSS(ne, series, effect, lag, -1)
	if err != nil {
		return GrangerResult{}, err
	}
	rssR, err := equationRSS(ne, series, effect, lag, cause)
	if err != nil {
		return GrangerResult{}, err
	}
	return grangerResult(series, effect, cause, lag, rssU, rssR), nil
}
