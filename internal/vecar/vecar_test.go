package vecar

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// seriesOf returns the price series of a trace set's zones.
func seriesOf(set *trace.Set) [][]float64 {
	series := make([][]float64, set.NumZones())
	for i, s := range set.Series {
		series[i] = s.Prices
	}
	return series
}

// synthesize generates a K-dimensional VAR(1) series with known
// coefficients for recovery tests.
func synthesize(n int, intercept []float64, a [][]float64, noise float64, seed uint64) [][]float64 {
	k := len(intercept)
	rng := rand.New(rand.NewPCG(seed, 99))
	out := make([][]float64, k)
	for j := range out {
		out[j] = make([]float64, n)
		out[j][0] = intercept[j]
	}
	for t := 1; t < n; t++ {
		for i := 0; i < k; i++ {
			v := intercept[i]
			for j := 0; j < k; j++ {
				v += a[i][j] * out[j][t-1]
			}
			out[i][t] = v + noise*rng.NormFloat64()
		}
	}
	return out
}

func TestFitRecoversVAR1(t *testing.T) {
	intercept := []float64{0.1, 0.2}
	a := [][]float64{{0.6, 0.05}, {0.02, 0.7}}
	series := synthesize(5000, intercept, a, 0.01, 1)
	m, err := Fit(series, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(m.Intercept[i]-intercept[i]) > 0.05 {
			t.Errorf("intercept[%d] = %g, want %g", i, m.Intercept[i], intercept[i])
		}
		for j := 0; j < 2; j++ {
			if got := m.Coef[0].At(i, j); math.Abs(got-a[i][j]) > 0.05 {
				t.Errorf("A[%d][%d] = %g, want %g", i, j, got, a[i][j])
			}
		}
	}
	if m.Obs != 4999 {
		t.Errorf("Obs = %d", m.Obs)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, 1); err == nil {
		t.Fatal("Fit accepted no series")
	}
	if _, err := Fit([][]float64{{1, 2, 3}}, 0); err == nil {
		t.Fatal("Fit accepted lag 0")
	}
	if _, err := Fit([][]float64{{1, 2, 3}, {1, 2}}, 1); err == nil {
		t.Fatal("Fit accepted ragged series")
	}
	if _, err := Fit([][]float64{{1, 2, 3}}, 2); err == nil {
		t.Fatal("Fit accepted too-short series")
	}
}

func TestSelectLagPrefersTrueOrder(t *testing.T) {
	// A strong AR(2) structure: lag-2 models should beat lag-1 on AIC.
	rng := rand.New(rand.NewPCG(7, 7))
	n := 3000
	x := make([]float64, n)
	x[0], x[1] = 0.5, 0.4
	for t := 2; t < n; t++ {
		x[t] = 0.2 + 0.3*x[t-1] + 0.5*x[t-2] + 0.05*rng.NormFloat64()
	}
	m, err := SelectLag([][]float64{x}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lag < 2 {
		t.Fatalf("SelectLag chose lag %d, want >= 2", m.Lag)
	}
}

func TestSelectLagErrors(t *testing.T) {
	if _, err := SelectLag([][]float64{{1, 2, 3}}, 0, 0); err == nil {
		t.Fatal("SelectLag accepted maxLag 0")
	}
}

func TestPredict(t *testing.T) {
	intercept := []float64{0.1, 0.2}
	a := [][]float64{{0.6, 0.0}, {0.0, 0.7}}
	series := synthesize(2000, intercept, a, 0.0, 2) // noiseless
	m, err := Fit(series, 1)
	if err != nil {
		t.Fatal(err)
	}
	hist := [][]float64{{series[0][len(series[0])-1]}, {series[1][len(series[1])-1]}}
	pred, err := m.Predict(hist)
	if err != nil {
		t.Fatal(err)
	}
	want0 := 0.1 + 0.6*hist[0][0]
	if math.Abs(pred[0]-want0) > 1e-3 {
		t.Fatalf("pred[0] = %g, want %g", pred[0], want0)
	}
	if _, err := m.Predict([][]float64{{1}}); err == nil {
		t.Fatal("Predict accepted wrong dimension")
	}
	if _, err := m.Predict([][]float64{{}, {}}); err == nil {
		t.Fatal("Predict accepted empty history")
	}
}

// The paper's §3.1 finding: on generated traces, same-zone dependence
// dominates cross-zone dependence by an order of magnitude or more.
func TestDependenceOnGeneratedTraces(t *testing.T) {
	set := tracegen.HighVolatility(42)
	m, err := SelectLag(seriesOf(set), 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dependence()
	if d.SelfMean <= d.CrossMean {
		t.Fatalf("self dependence %g not stronger than cross %g", d.SelfMean, d.CrossMean)
	}
	if d.Ratio < 5 {
		t.Errorf("self/cross ratio = %g, want >= 5 (paper reports 1-2 orders of magnitude)", d.Ratio)
	}
}

func TestFitSetLowVolatility(t *testing.T) {
	set := tracegen.LowVolatility(3)
	m, err := FitSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 3 || m.Lag != 2 || len(m.Coef) != 2 {
		t.Fatalf("model shape: K=%d Lag=%d", m.K, m.Lag)
	}
	// Residual covariance diagonal must be non-negative.
	for i := 0; i < m.K; i++ {
		if m.ResidCov.At(i, i) < 0 {
			t.Fatalf("negative residual variance %g", m.ResidCov.At(i, i))
		}
	}
}

func TestDependenceZeroCross(t *testing.T) {
	// Perfectly independent noiseless AR(1) zones: cross terms ≈ 0 but
	// Ratio must stay well-defined.
	intercept := []float64{0.1, 0.3}
	a := [][]float64{{0.5, 0}, {0, 0.4}}
	series := synthesize(1000, intercept, a, 0.01, 9)
	m, err := Fit(series, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dependence()
	if math.IsNaN(d.Ratio) {
		t.Fatal("Ratio is NaN")
	}
	if d.Ratio < 3 {
		t.Fatalf("independent zones should show high self/cross ratio, got %g", d.Ratio)
	}
}
