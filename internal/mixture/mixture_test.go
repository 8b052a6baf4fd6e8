package mixture

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// twoModes draws from 0.6·N(0.3, 0.02) + 0.4·N(2.5, 0.3).
func twoModes(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < 0.6 {
			out[i] = 0.3 + 0.02*rng.NormFloat64()
		} else {
			out[i] = 2.5 + 0.3*rng.NormFloat64()
		}
	}
	return out
}

func TestFitRecoversTwoModes(t *testing.T) {
	samples := twoModes(4000, 7)
	m, err := Fit(samples, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.Components[0], m.Components[1]
	if math.Abs(lo.Mean-0.3) > 0.05 || math.Abs(hi.Mean-2.5) > 0.1 {
		t.Fatalf("means = %.3f, %.3f", lo.Mean, hi.Mean)
	}
	if math.Abs(lo.Weight-0.6) > 0.05 || math.Abs(hi.Weight-0.4) > 0.05 {
		t.Fatalf("weights = %.3f, %.3f", lo.Weight, hi.Weight)
	}
	if hi.Stddev < lo.Stddev {
		t.Fatalf("spike component narrower than base: %.3f vs %.3f", hi.Stddev, lo.Stddev)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1, 2, 3}, 0, Options{}); err == nil {
		t.Fatal("accepted k=0")
	}
	if _, err := Fit([]float64{1, 2, 3}, 2, Options{}); err == nil {
		t.Fatal("accepted too few samples")
	}
}

func TestPDFAndCDF(t *testing.T) {
	samples := twoModes(2000, 9)
	m, err := Fit(samples, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// CDF monotone from ~0 to ~1.
	prev := -1.0
	for x := -1.0; x <= 5.0; x += 0.1 {
		c := m.CDF(x)
		if c < prev-1e-12 || c < 0 || c > 1 {
			t.Fatalf("CDF(%g) = %g not monotone in [0,1]", x, c)
		}
		prev = c
	}
	if m.CDF(-2) > 1e-6 || m.CDF(6) < 1-1e-6 {
		t.Fatalf("CDF tails wrong: %g, %g", m.CDF(-2), m.CDF(6))
	}
	// PDF integrates to ≈ 1 (trapezoid over a wide range).
	var integral float64
	const dx = 0.001
	for x := -2.0; x <= 6.0; x += dx {
		integral += m.pdf(x) * dx
	}
	if math.Abs(integral-1) > 0.01 {
		t.Fatalf("PDF integral = %g", integral)
	}
	// Tail probability at the saddle between modes ≈ spike weight.
	if got := m.TailProbability(1.0); math.Abs(got-0.4) > 0.05 {
		t.Fatalf("tail(1.0) = %g, want ≈ 0.4", got)
	}
}

func TestSelectComponentsPrefersTwoForBimodal(t *testing.T) {
	samples := twoModes(3000, 11)
	m, err := SelectComponents(samples, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Components) < 2 {
		t.Fatalf("selected %d components for bimodal data", len(m.Components))
	}
}

func TestSelectComponentsUnimodal(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	samples := make([]float64, 3000)
	for i := range samples {
		samples[i] = 0.5 + 0.05*rng.NormFloat64()
	}
	m, err := SelectComponents(samples, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// BIC should not pay for many components on unimodal data; the
	// dominant component carries almost all the weight.
	maxW := 0.0
	for _, c := range m.Components {
		if c.Weight > maxW {
			maxW = c.Weight
		}
	}
	if maxW < 0.6 {
		t.Fatalf("no dominant component (max weight %.2f) on unimodal data", maxW)
	}
}

// The calibration check the repository uses: the low-volatility month
// is essentially one tight component near $0.30; the high-volatility
// month needs a spike component well above the base.
func TestGeneratorCalibrationShapes(t *testing.T) {
	low := tracegen.LowVolatility(5).Series[0].Slice(0, 10*24*trace.Hour).Prices
	mLow, err := SelectComponents(low, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Nearly all the mass sits within a nickel of the $0.30 base (BIC
	// may split the tight base into close sub-components, so the check
	// is on mass near the base, not on a single component).
	nearBase := 0.0
	for _, c := range mLow.Components {
		if math.Abs(c.Mean-0.30) <= 0.06 {
			nearBase += c.Weight
		}
	}
	if nearBase < 0.9 {
		t.Fatalf("low-vol mass near $0.30 = %.2f, want >= 0.9 (components %+v)", nearBase, mLow.Components)
	}

	high := tracegen.HighVolatility(5).Series[2].Slice(0, 10*24*trace.Hour).Prices
	mHigh, err := SelectComponents(high, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mHigh.Components) < 2 {
		t.Fatal("high-vol prices fit a single component")
	}
	base := mHigh.Components[0]
	spike := mHigh.Components[len(mHigh.Components)-1]
	if spike.Mean < base.Mean+0.5 {
		t.Fatalf("no separated spike component: base %.2f vs top %.2f", base.Mean, spike.Mean)
	}
}

func TestLogLikelihoodImproves(t *testing.T) {
	samples := twoModes(1000, 15)
	one, err := Fit(samples, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Fit(samples, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if two.LogLikelihood <= one.LogLikelihood {
		t.Fatalf("2-component LL %.1f not above 1-component %.1f", two.LogLikelihood, one.LogLikelihood)
	}
}

// pdf evaluates the mixture density at x.
func (m *Model) pdf(x float64) float64 {
	var p float64
	for _, c := range m.Components {
		p += c.Weight * normalPDF(x, c.Mean, c.Stddev)
	}
	return p
}
