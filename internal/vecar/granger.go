package vecar

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/pool"
	"repro/internal/stats"
)

// GrangerResult reports one Granger-causality F test: whether the
// lagged history of the cause series improves the prediction of the
// effect series beyond the effect's own history (and the other zones').
// The paper's §3.1 observation is precisely this combination: cross-zone
// dependencies carry some statistical significance, while their effect
// sizes stay 1–2 orders of magnitude below same-zone dependence.
type GrangerResult struct {
	// Cause and Effect are series indices.
	Cause, Effect int
	// F is the test statistic; P its upper-tail p-value under
	// F(lag, T − k) where k counts unrestricted parameters.
	F, P float64
	// RSSRestricted and RSSUnrestricted are the residual sums of
	// squares without and with the cause's lags.
	RSSRestricted, RSSUnrestricted float64
}

// Significant reports whether the test rejects at the given level.
func (g GrangerResult) Significant(alpha float64) bool { return g.P < alpha }

// checkGranger rejects a lag the series cannot support.
func checkGranger(series [][]float64, lag int) error {
	if lag < 1 {
		return fmt.Errorf("vecar: lag %d must be >= 1", lag)
	}
	obs := len(series[0]) - lag
	if paramsU := 1 + len(series)*lag; obs <= paramsU {
		return fmt.Errorf("%w: %d observations for %d parameters", ErrTooShort, obs, paramsU)
	}
	return nil
}

// grangerResult forms the F test from the two fits' residual sums of
// squares.
func grangerResult(series [][]float64, effect, cause, lag int, rssU, rssR float64) GrangerResult {
	res := GrangerResult{Cause: cause, Effect: effect, RSSRestricted: rssR, RSSUnrestricted: rssU}
	obs := len(series[0]) - lag
	paramsU := 1 + len(series)*lag
	df2 := float64(obs - paramsU)
	if rssU <= 0 {
		// A perfect unrestricted fit: any improvement is degenerate;
		// report no evidence rather than dividing by zero.
		res.P = 1
		return res
	}
	res.F = ((rssR - rssU) / float64(lag)) / (rssU / df2)
	if res.F < 0 {
		res.F = 0 // numerical noise on near-identical fits
	}
	res.P = stats.FSurvival(res.F, float64(lag), df2)
	return res
}

// equationRSS fits series[effect](t) on a constant and the lags of all
// series (omitting series drop entirely when drop >= 0) and returns the
// residual sum of squares. The fit's normal equations are the sub-block
// of ne, the unrestricted equations of every series, without drop's lag
// columns: NormalEquations.Add sums each entry in row order whatever
// the other columns hold, so the sub-block is the restricted design's
// own equations bit for bit. The residuals stream the design rows once
// more, so memory is O(cols²) whatever the series length.
func equationRSS(ne *mat.NormalEquations, series [][]float64, effect, lag, drop int) (float64, error) {
	obs := len(series[0]) - lag
	keep := make([]int, 0, ne.XtX.Rows)
	for i := 0; i < ne.XtX.Rows; i++ {
		if i == 0 || drop < 0 || (i-1)%len(series) != drop {
			keep = append(keep, i)
		}
	}
	sub := mat.NewNormalEquations(len(keep), 1)
	for a, i := range keep {
		for b, j := range keep {
			sub.XtX.Set(a, b, ne.XtX.At(i, j))
		}
		sub.XtY.Set(a, 0, ne.XtY.At(i, effect))
	}
	beta, err := sub.Solve()
	if err != nil {
		return 0, fmt.Errorf("vecar: granger OLS failed: %w", err)
	}
	y := series[effect][lag:]
	row := make([]float64, len(keep))
	var rss float64
	fit := make([]float64, 1)
	for t := 0; t < obs; t++ {
		designRow(row, series, lag, t, drop)
		r := beta.VecMul(row, fit)[0] - y[t]
		rss += r * r
	}
	return rss, nil
}

// GrangerMatrix runs the test for every ordered pair (cause ≠ effect),
// effect-major. Each effect's unrestricted regression is fitted once
// and shared by its tests: k² regressions rather than 2·k·(k−1), all
// solved from one accumulation of the unrestricted normal equations.
// Their residual passes run across at most workers goroutines (≤ 0
// selects GOMAXPROCS), with the same results at any setting.
func GrangerMatrix(series [][]float64, lag, workers int) ([]GrangerResult, error) {
	k := len(series)
	if k < 2 {
		return nil, nil
	}
	if err := checkGranger(series, lag); err != nil {
		return nil, err
	}
	// Regression e·k+c fits effect e without cause c's lags, or with
	// every series' lags when c == e.
	ne := normalEquations(series, lag)
	rss := make([]float64, k*k)
	err := pool.RunErr(workers, k*k, func(i int) error {
		effect, drop := i/k, i%k
		if drop == effect {
			drop = -1
		}
		var err error
		rss[i], err = equationRSS(ne, series, effect, lag, drop)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]GrangerResult, 0, k*(k-1))
	for effect := 0; effect < k; effect++ {
		for cause := 0; cause < k; cause++ {
			if cause != effect {
				out = append(out, grangerResult(series, effect, cause, lag, rss[effect*k+effect], rss[effect*k+cause]))
			}
		}
	}
	return out, nil
}
