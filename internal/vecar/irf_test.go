package vecar

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/tracegen"
)

// fitKnownVAR1 builds a Model directly with known coefficients.
func knownVAR1(a [][]float64) *Model {
	k := len(a)
	coef := mat.New(k, k)
	for i := range a {
		for j := range a[i] {
			coef.Set(i, j, a[i][j])
		}
	}
	return &Model{K: k, Lag: 1, Intercept: make([]float64, k), Coef: []*mat.Matrix{coef}}
}

func TestImpulseResponseVAR1IsPower(t *testing.T) {
	m := knownVAR1([][]float64{{0.5, 0.1}, {0.0, 0.4}})
	irf, err := m.ImpulseResponse(3)
	if err != nil {
		t.Fatal(err)
	}
	// Φ_h = A^h for a VAR(1).
	a := m.Coef[0]
	want := mat.Identity(2)
	for h := 0; h <= 3; h++ {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if math.Abs(irf[h].At(i, j)-want.At(i, j)) > 1e-12 {
					t.Fatalf("Φ_%d[%d][%d] = %g, want %g", h, i, j, irf[h].At(i, j), want.At(i, j))
				}
			}
		}
		want = a.Mul(want)
	}
}

func TestImpulseResponseErrors(t *testing.T) {
	m := knownVAR1([][]float64{{0.5}})
	if _, err := m.ImpulseResponse(-1); err == nil {
		t.Fatal("accepted negative horizon")
	}
}

func TestCrossImpactDiagonalModel(t *testing.T) {
	// Fully decoupled zones: cross impact exactly zero.
	m := knownVAR1([][]float64{{0.5, 0}, {0, 0.6}})
	c, err := m.CrossImpact(10)
	if err != nil {
		t.Fatal(err)
	}
	if c.CrossTotal != 0 || !math.IsInf(c.Ratio, 1) {
		t.Fatalf("cross impact = %+v", c)
	}
	if c.SelfTotal <= 0 {
		t.Fatalf("self impact = %g", c.SelfTotal)
	}
}

func TestCrossImpactOnGeneratedTraces(t *testing.T) {
	set := tracegen.HighVolatility(61)
	m, err := SelectLag(seriesOf(set), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.CrossImpact(24) // two hours of 5-minute steps
	if err != nil {
		t.Fatal(err)
	}
	// Shock propagation across zones stays an order of magnitude below
	// the shock's own echo — the impulse-domain form of §3.1.
	if c.Ratio < 5 {
		t.Fatalf("impulse self/cross ratio = %g", c.Ratio)
	}
}

func TestStability(t *testing.T) {
	stable := knownVAR1([][]float64{{0.5, 0.1}, {0.05, 0.4}})
	ok, err := stable.Stable(64, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("stable VAR reported unstable")
	}
	explosive := knownVAR1([][]float64{{1.2, 0}, {0, 0.5}})
	ok, err = explosive.Stable(64, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("explosive VAR reported stable")
	}
	// Fitted market chains must be stable (mean-reverting prices).
	set := tracegen.LowVolatility(71)
	m, err := FitSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = m.Stable(512, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("fitted market VAR is not stable")
	}
}
