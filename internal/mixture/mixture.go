// Package mixture fits one-dimensional Gaussian mixture models to spot
// price samples by expectation-maximisation.
//
// The paper's related work (Javadi, Thulasiram & Buyya, "Statistical
// modeling of spot instance prices in public cloud environments")
// characterises spot prices with mixture distributions; this package
// reproduces that methodology and the repository uses it to validate
// the synthetic generator's calibration: a low-volatility month should
// fit a single tight component near $0.30, while a high-volatility
// month needs a base component plus a wide spike component.
package mixture

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Component is one Gaussian mixture component.
type Component struct {
	Weight float64
	Mean   float64
	Stddev float64
}

// Model is a fitted mixture.
type Model struct {
	Components []Component
	// LogLikelihood of the training data under the fit.
	LogLikelihood float64
	// Iterations the EM loop ran.
	Iterations int
}

// Options control the EM fit.
type Options struct {
	// MaxIter bounds EM iterations (default 200).
	MaxIter int
	// Tol stops EM when the log-likelihood improves by less (default 1e-8).
	Tol float64
	// MinStddev floors component spreads, preventing singular
	// components collapsing onto repeated price points (default 0.005,
	// half a price cent).
	MinStddev float64
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MinStddev <= 0 {
		o.MinStddev = 0.005
	}
	return o
}

// ErrDegenerate reports too few samples for the requested components.
var ErrDegenerate = errors.New("mixture: too few samples")

// Fit estimates a k-component mixture from samples by EM, initialised
// from the sample quantiles (deterministic — no random restarts).
func Fit(samples []float64, k int, opts Options) (*Model, error) {
	if k < 1 {
		return nil, fmt.Errorf("mixture: k = %d must be >= 1", k)
	}
	if len(samples) < 2*k {
		return nil, fmt.Errorf("%w: %d samples for k = %d", ErrDegenerate, len(samples), k)
	}
	o := opts.withDefaults()
	n := len(samples)

	// Deterministic init: component means at spread quantiles, shared
	// stddev from the sample spread, equal weights.
	sorted := make([]float64, n)
	copy(sorted, samples)
	sort.Float64s(sorted)
	var mean, ss float64
	for _, v := range sorted {
		mean += v
	}
	mean /= float64(n)
	for _, v := range sorted {
		d := v - mean
		ss += d * d
	}
	globalSD := math.Sqrt(ss/float64(n)) + o.MinStddev
	comps := make([]Component, k)
	for j := range comps {
		q := (float64(j) + 0.5) / float64(k)
		comps[j] = Component{
			Weight: 1 / float64(k),
			Mean:   sorted[int(q*float64(n-1))],
			Stddev: globalSD,
		}
	}

	resp := make([][]float64, k) // responsibilities
	for j := range resp {
		resp[j] = make([]float64, n)
	}
	prevLL := math.Inf(-1)
	m := &Model{}
	for iter := 0; iter < o.MaxIter; iter++ {
		// E step.
		var ll float64
		for i, x := range samples {
			var total float64
			for j := range comps {
				p := comps[j].Weight * normalPDF(x, comps[j].Mean, comps[j].Stddev)
				resp[j][i] = p
				total += p
			}
			if total <= 0 {
				// An outlier beyond every component's reach: assign to
				// the nearest component.
				nearest := 0
				for j := 1; j < k; j++ {
					if math.Abs(x-comps[j].Mean) < math.Abs(x-comps[nearest].Mean) {
						nearest = j
					}
				}
				for j := range comps {
					resp[j][i] = 0
				}
				resp[nearest][i] = 1
				total = normalPDF(x, comps[nearest].Mean, comps[nearest].Stddev)
				if total <= 0 {
					total = 1e-300
				}
			} else {
				for j := range comps {
					resp[j][i] /= total
				}
			}
			ll += math.Log(total)
		}
		m.LogLikelihood = ll
		m.Iterations = iter + 1
		if ll-prevLL < o.Tol && iter > 0 {
			break
		}
		prevLL = ll

		// M step.
		for j := range comps {
			var w, mu float64
			for i, x := range samples {
				w += resp[j][i]
				mu += resp[j][i] * x
			}
			if w <= 0 {
				// A dead component: park it on the global mean with a
				// tiny weight; it can recover on later iterations.
				comps[j] = Component{Weight: 1e-6, Mean: mean, Stddev: globalSD}
				continue
			}
			mu /= w
			var varsum float64
			for i, x := range samples {
				d := x - mu
				varsum += resp[j][i] * d * d
			}
			sd := math.Sqrt(varsum / w)
			if sd < o.MinStddev {
				sd = o.MinStddev
			}
			comps[j] = Component{Weight: w / float64(n), Mean: mu, Stddev: sd}
		}
	}
	// Sort components by mean for stable reporting.
	sort.Slice(comps, func(a, b int) bool { return comps[a].Mean < comps[b].Mean })
	m.Components = comps
	return m, nil
}

// CDF evaluates the mixture distribution function at x, clamped to
// [0, 1] against floating-point drift in the component sum.
func (m *Model) CDF(x float64) float64 {
	var p float64
	for _, c := range m.Components {
		p += c.Weight * 0.5 * math.Erfc(-(x-c.Mean)/(c.Stddev*math.Sqrt2))
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// TailProbability returns P(price > x): the chance a fresh price draw
// exceeds a bid — the mixture-model counterpart of the Markov chain's
// out-of-bid prediction.
func (m *Model) TailProbability(x float64) float64 { return 1 - m.CDF(x) }

// BIC returns the Bayesian information criterion of the fit on n
// samples (lower is better), for choosing the component count.
func (m *Model) BIC(n int) float64 {
	params := float64(3*len(m.Components) - 1)
	return params*math.Log(float64(n)) - 2*m.LogLikelihood
}

// SelectComponents fits k = 1..maxK and returns the fit minimising BIC,
// the standard order-selection rule for mixtures.
func SelectComponents(samples []float64, maxK int, opts Options) (*Model, error) {
	if maxK < 1 {
		return nil, fmt.Errorf("mixture: maxK = %d must be >= 1", maxK)
	}
	var best *Model
	bestBIC := math.Inf(1)
	for k := 1; k <= maxK; k++ {
		m, err := Fit(samples, k, opts)
		if err != nil {
			if errors.Is(err, ErrDegenerate) {
				break
			}
			return nil, err
		}
		if bic := m.BIC(len(samples)); bic < bestBIC {
			bestBIC = bic
			best = m
		}
	}
	if best == nil {
		return nil, ErrDegenerate
	}
	return best, nil
}

func normalPDF(x, mu, sd float64) float64 {
	z := (x - mu) / sd
	return math.Exp(-0.5*z*z) / (sd * math.Sqrt(2*math.Pi))
}
