// Package vecar fits vector auto-regressions to multi-zone spot price
// series, reproducing the paper's §3.1 analysis: "we employed a Vector
// Auto-Regression, using the Akaike criteria to determine the optimal
// number of lags", which showed each zone depends strongly on its own
// price history while cross-zone lagged effects are 1–2 orders of
// magnitude smaller — the statistical basis for exploiting redundancy.
package vecar

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/pool"
)

// Model is a fitted VAR(p): yₜ = c + Σ_l A_l·yₜ₋l + eₜ for an
// K-dimensional series.
type Model struct {
	// K is the series dimension (number of zones).
	K int
	// Lag is the model order p.
	Lag int
	// Intercept is the constant term c (length K).
	Intercept []float64
	// Coef holds one K×K matrix per lag; Coef[l].At(i, j) is the effect
	// of zone j at lag l+1 on zone i now.
	Coef []*mat.Matrix
	// ResidCov is the K×K residual covariance matrix.
	ResidCov *mat.Matrix
	// AIC is the Akaike information criterion of the fit.
	AIC float64
	// Obs is the number of effective observations used.
	Obs int
}

// ErrTooShort reports a series too short for the requested lag.
var ErrTooShort = errors.New("vecar: series too short for requested lag")

// Fit estimates a VAR(lag) on the K series by equation-wise ordinary
// least squares. Each series[i] must have the same length.
func Fit(series [][]float64, lag int) (*Model, error) {
	k := len(series)
	if k == 0 {
		return nil, errors.New("vecar: no series")
	}
	if lag < 1 {
		return nil, fmt.Errorf("vecar: lag %d must be >= 1", lag)
	}
	n := len(series[0])
	for i, s := range series {
		if len(s) != n {
			return nil, fmt.Errorf("vecar: series %d length %d != %d", i, len(s), n)
		}
	}
	obs := n - lag
	params := 1 + k*lag
	if obs <= params {
		return nil, fmt.Errorf("%w: %d observations for %d parameters", ErrTooShort, obs, params)
	}

	// Stream the design one row at a time: the normal equations, then
	// the residual covariance (ML estimate, divisor obs).
	ne := normalEquations(series, lag)
	row := make([]float64, params)
	beta, err := ne.Solve() // params × k
	if err != nil {
		return nil, fmt.Errorf("vecar: OLS failed: %w", err)
	}

	m := &Model{K: k, Lag: lag, Obs: obs, Intercept: make([]float64, k)}
	for j := 0; j < k; j++ {
		m.Intercept[j] = beta.At(0, j)
	}
	m.Coef = make([]*mat.Matrix, lag)
	for l := 0; l < lag; l++ {
		a := mat.New(k, k)
		for i := 0; i < k; i++ { // equation for zone i
			for j := 0; j < k; j++ { // regressor zone j at lag l+1
				a.Set(i, j, beta.At(1+l*k+j, i))
			}
		}
		m.Coef[l] = a
	}

	cov := mat.New(k, k)
	resid := make([]float64, k)
	for t := 0; t < obs; t++ {
		designRow(row, series, lag, t, -1)
		beta.VecMul(row, resid)
		for j := range resid {
			resid[j] -= series[j][lag+t]
		}
		for i, ri := range resid {
			for j, rj := range resid {
				cov.Data[i*k+j] += ri * rj
			}
		}
	}
	for i := range cov.Data {
		cov.Data[i] /= float64(obs)
	}
	m.ResidCov = cov

	det, err := mat.Det(cov)
	if err != nil {
		return nil, err
	}
	if det <= 0 {
		// Degenerate residuals (e.g. a perfectly constant zone): treat
		// as an essentially exact fit with a tiny positive determinant
		// so lag selection still works.
		det = 1e-300
	}
	// Multivariate AIC: ln|Σ| + 2·m/T with m = k²·p + k parameters.
	m.AIC = math.Log(det) + 2*float64(k*k*lag+k)/float64(obs)
	return m, nil
}

// normalEquations accumulates the VAR(lag) normal equations of every
// series at once, streaming the design: the regressors are a constant
// and every series' lags (designRow), the responses every series.
func normalEquations(series [][]float64, lag int) *mat.NormalEquations {
	k := len(series)
	ne := mat.NewNormalEquations(1+k*lag, k)
	row := make([]float64, 1+k*lag)
	y := make([]float64, k)
	for t := 0; t < len(series[0])-lag; t++ {
		designRow(row, series, lag, t, -1)
		for j := range y {
			y[j] = series[j][lag+t]
		}
		ne.Add(row, y)
	}
	return ne
}

// designRow fills row with the VAR(lag) design row of observation t:
// [1, y₁(t-1)…y_K(t-1), …, y₁(t-p)…y_K(t-p)], leaving out series drop
// (none when drop < 0).
func designRow(row []float64, series [][]float64, lag, t, drop int) {
	row[0] = 1
	col := 1
	for l := 1; l <= lag; l++ {
		for j, s := range series {
			if j == drop {
				continue
			}
			row[col] = s[lag+t-l]
			col++
		}
	}
}

// SelectLag fits VAR(1)…VAR(maxLag) and returns the model minimising
// the Akaike information criterion, as the paper does. The fits run
// across at most workers goroutines (≤ 0 selects GOMAXPROCS); the pick
// scans them in lag order, so the result is the same at any setting.
func SelectLag(series [][]float64, maxLag, workers int) (*Model, error) {
	if maxLag < 1 {
		return nil, fmt.Errorf("vecar: maxLag %d must be >= 1", maxLag)
	}
	fits := make([]*Model, maxLag)
	errs := make([]error, maxLag)
	// Hand out the costlier long lags first so the workers finish
	// together.
	pool.Run(workers, maxLag, func(i int) {
		lag := maxLag - i
		fits[lag-1], errs[lag-1] = Fit(series, lag)
	})
	var best *Model
	for i, m := range fits {
		if err := errs[i]; err != nil {
			if errors.Is(err, ErrTooShort) && best != nil {
				break // longer lags are infeasible; keep the best so far
			}
			return nil, err
		}
		if best == nil || m.AIC < best.AIC {
			best = m
		}
	}
	return best, nil
}

// Dependence summarises the magnitude of lagged effects: the mean
// absolute same-zone (diagonal) coefficient versus the mean absolute
// cross-zone (off-diagonal) coefficient, and their ratio. The paper
// reports a self/cross ratio of 1–2 orders of magnitude.
type Dependence struct {
	SelfMean  float64
	CrossMean float64
	// Ratio is SelfMean / CrossMean (+Inf when CrossMean is zero).
	Ratio float64
}

// Dependence computes the self- versus cross-zone dependence summary.
func (m *Model) Dependence() Dependence {
	var self, cross float64
	var nSelf, nCross int
	for _, a := range m.Coef {
		for i := 0; i < m.K; i++ {
			for j := 0; j < m.K; j++ {
				v := math.Abs(a.At(i, j))
				if i == j {
					self += v
					nSelf++
				} else {
					cross += v
					nCross++
				}
			}
		}
	}
	d := Dependence{}
	if nSelf > 0 {
		d.SelfMean = self / float64(nSelf)
	}
	if nCross > 0 {
		d.CrossMean = cross / float64(nCross)
	}
	if d.CrossMean == 0 {
		d.Ratio = math.Inf(1)
	} else {
		d.Ratio = d.SelfMean / d.CrossMean
	}
	return d
}
