package vecar

import (
	"fmt"
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
	irf, err := m.impulseResponse(3)
	if err != nil {
		t.Fatal(err)
	}
	// Φ_h = A^h for a VAR(1).
	a := m.Coef[0]
	want := identity(2)
	for h := 0; h <= 3; h++ {
		for i := 0; i < 2; i++ {
			for j := 0; j < 2; j++ {
				if math.Abs(irf[h].At(i, j)-want.At(i, j)) > 1e-12 {
					t.Fatalf("Φ_%d[%d][%d] = %g, want %g", h, i, j, irf[h].At(i, j), want.At(i, j))
				}
			}
		}
		want = mul(a, want)
	}
}

func TestImpulseResponseErrors(t *testing.T) {
	m := knownVAR1([][]float64{{0.5}})
	if _, err := m.impulseResponse(-1); err == nil {
		t.Fatal("accepted negative horizon")
	}
}

func TestCrossImpactDiagonalModel(t *testing.T) {
	// Fully decoupled zones: cross impact exactly zero.
	m := knownVAR1([][]float64{{0.5, 0}, {0, 0.6}})
	c, err := m.crossImpact(10)
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
	c, err := m.crossImpact(24) // two hours of 5-minute steps
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
	ok, err := stable.stable(64, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("stable VAR reported unstable")
	}
	explosive := knownVAR1([][]float64{{1.2, 0}, {0, 0.5}})
	ok, err = explosive.stable(64, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("explosive VAR reported stable")
	}
	// Fitted market chains must be stable (mean-reverting prices).
	set := tracegen.LowVolatility(71)
	m, err := fitSet(set, 2)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = m.stable(512, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("fitted market VAR is not stable")
	}
}

// crossImpact summarises an impulse-response set as the cumulative
// absolute response, split into same-zone (a shock's echo in its own
// zone) and cross-zone components, plus their ratio — the
// impulse-domain counterpart of Dependence.
type crossImpact struct {
	SelfTotal  float64
	CrossTotal float64
	// Ratio is SelfTotal / CrossTotal (+Inf when cross is zero).
	Ratio float64
}

// crossImpact computes the summary over the given horizon.
func (m *Model) crossImpact(horizon int) (crossImpact, error) {
	irf, err := m.impulseResponse(horizon)
	if err != nil {
		return crossImpact{}, err
	}
	var c crossImpact
	for _, phi := range irf[1:] { // Φ_0 = I carries no information
		for i := 0; i < m.K; i++ {
			for j := 0; j < m.K; j++ {
				v := math.Abs(phi.At(i, j))
				if i == j {
					c.SelfTotal += v
				} else {
					c.CrossTotal += v
				}
			}
		}
	}
	if c.CrossTotal == 0 {
		c.Ratio = math.Inf(1)
	} else {
		c.Ratio = c.SelfTotal / c.CrossTotal
	}
	return c, nil
}

// stable reports whether the impulse responses die out over the given
// horizon (the largest entry of the final Φ is below tol) — a sanity
// check that the fitted VAR describes a mean-reverting market rather
// than an explosive one.
func (m *Model) stable(horizon int, tol float64) (bool, error) {
	irf, err := m.impulseResponse(horizon)
	if err != nil {
		return false, err
	}
	for _, v := range irf[horizon].Data {
		if math.Abs(v) >= tol {
			return false, nil
		}
	}
	return true, nil
}

// impulseResponse returns the VAR's moving-average coefficients
// Φ_0 … Φ_horizon: Φ_h[i][j] is the response of zone i, h steps after a
// unit shock to zone j. Φ_0 = I and Φ_h = Σ_{l=1..min(h,p)} A_l·Φ_{h−l},
// the standard recursion. For the paper's §3.1 story the interesting
// quantity is how little of a shock crosses zones.
func (m *Model) impulseResponse(horizon int) ([]*mat.Matrix, error) {
	if horizon < 0 {
		return nil, fmt.Errorf("vecar: negative horizon")
	}
	out := make([]*mat.Matrix, horizon+1)
	out[0] = identity(m.K)
	for h := 1; h <= horizon; h++ {
		phi := mat.New(m.K, m.K)
		for l := 1; l <= m.Lag && l <= h; l++ {
			for i, v := range mul(m.Coef[l-1], out[h-l]).Data {
				phi.Data[i] += v
			}
		}
		out[h] = phi
	}
	return out, nil
}

// identity returns the n-by-n identity matrix.
func identity(n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
