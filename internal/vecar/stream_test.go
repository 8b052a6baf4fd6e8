package vecar

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/mat"
	"repro/internal/tracegen"
)

// This file pins the streamed fits to the materialized ones they
// replaced: fitRef and equationRSSRef build the full design matrix and
// solve it with leastSquaresRef, and every float the streamed path
// returns must carry the same bits.

// leastSquaresRef solves min ‖X·β − Y‖² from the materialized normal
// equations XᵀX and XᵀY, with the same ridge fallback as the streamed
// path.
func leastSquaresRef(x, y *mat.Matrix) (*mat.Matrix, error) {
	xt := x.T()
	return (&mat.NormalEquations{XtX: xt.Mul(x), XtY: xt.Mul(y)}).Solve()
}

// designRef materializes the design of a VAR(lag) on series, leaving
// out series drop (none when drop < 0), and the responses of effect
// (every series when effect < 0).
func designRef(series [][]float64, lag, effect, drop int) (z, y *mat.Matrix) {
	k := len(series)
	obs := len(series[0]) - lag
	cols := 1 + k*lag
	if drop >= 0 {
		cols -= lag
	}
	z = mat.New(obs, cols)
	resp := []int{effect}
	if effect < 0 {
		resp = resp[:0]
		for j := range series {
			resp = append(resp, j)
		}
	}
	y = mat.New(obs, len(resp))
	for t := 0; t < obs; t++ {
		z.Set(t, 0, 1)
		col := 1
		for l := 1; l <= lag; l++ {
			for j := 0; j < k; j++ {
				if j == drop {
					continue
				}
				z.Set(t, col, series[j][lag+t-l])
				col++
			}
		}
		for c, j := range resp {
			y.Set(t, c, series[j][lag+t])
		}
	}
	return z, y
}

// fitRef is Fit over the materialized design.
func fitRef(series [][]float64, lag int) (*Model, error) {
	k := len(series)
	z, y := designRef(series, lag, -1, -1)
	beta, err := leastSquaresRef(z, y)
	if err != nil {
		return nil, err
	}
	obs := z.Rows
	m := &Model{K: k, Lag: lag, Obs: obs, Intercept: make([]float64, k)}
	for j := 0; j < k; j++ {
		m.Intercept[j] = beta.At(0, j)
	}
	m.Coef = make([]*mat.Matrix, lag)
	for l := 0; l < lag; l++ {
		a := mat.New(k, k)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				a.Set(i, j, beta.At(1+l*k+j, i))
			}
		}
		m.Coef[l] = a
	}
	resid := z.Mul(beta).Sub(y)
	cov := mat.New(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			var s float64
			for t := 0; t < obs; t++ {
				s += resid.At(t, i) * resid.At(t, j)
			}
			cov.Set(i, j, s/float64(obs))
		}
	}
	m.ResidCov = cov
	det, err := mat.Det(cov)
	if err != nil {
		return nil, err
	}
	if det <= 0 {
		det = 1e-300
	}
	m.AIC = math.Log(det) + 2*float64(k*k*lag+k)/float64(obs)
	return m, nil
}

// equationRSSRef is equationRSS over the materialized design.
func equationRSSRef(series [][]float64, effect, lag, drop int) (float64, error) {
	z, y := designRef(series, lag, effect, drop)
	beta, err := leastSquaresRef(z, y)
	if err != nil {
		return 0, err
	}
	var rss float64
	for _, v := range z.Mul(beta).Sub(y).Data {
		rss += v * v
	}
	return rss, nil
}

// bits flattens a model into the float bit patterns it reports.
func bits(m *Model) []uint64 {
	out := []uint64{uint64(m.K), uint64(m.Lag), uint64(m.Obs), math.Float64bits(m.AIC)}
	vals := append([]float64(nil), m.Intercept...)
	for _, a := range m.Coef {
		vals = append(vals, a.Data...)
	}
	vals = append(vals, m.ResidCov.Data...)
	for _, v := range vals {
		out = append(out, math.Float64bits(v))
	}
	return out
}

// checkStreamed compares Fit, and every equationRSS of lag when rss is
// set — each solved from the sub-block of one accumulation of the
// unrestricted equations — against the materialized references, which
// build each restricted design on its own.
func checkStreamed(t *testing.T, series [][]float64, lag int, rss bool) {
	t.Helper()
	got, err := Fit(series, lag)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fitRef(series, lag)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bits(got), bits(want)) {
		t.Fatalf("lag %d: streamed Fit differs from the materialized fit", lag)
	}
	if !rss {
		return
	}
	ne := normalEquations(series, lag)
	for effect := range series {
		for drop := -1; drop < len(series); drop++ {
			if drop == effect {
				continue
			}
			got, err := equationRSS(ne, series, effect, lag, drop)
			if err != nil {
				t.Fatal(err)
			}
			want, err := equationRSSRef(series, effect, lag, drop)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("lag %d effect %d drop %d: RSS %v, materialized %v", lag, effect, drop, got, want)
			}
		}
	}
}

// Every lag the paper suite fits; the twelve Granger regressions of
// the year are checked at lag 2 only, to bound the test's run time.
func TestStreamedFitsMatchMaterializedOnYear(t *testing.T) {
	series := seriesOf(tracegen.Year(1))
	for lag := 1; lag <= 6; lag++ {
		t.Run(fmt.Sprint("lag", lag), func(t *testing.T) { checkStreamed(t, series, lag, lag == 2) })
	}
}

// A constant zone makes its lag columns collinear with the intercept,
// so every fit takes the ridge fallback.
func TestStreamedFitsMatchMaterializedRidge(t *testing.T) {
	series := synthesize(400, []float64{0.1, 0.2}, [][]float64{{0.6, 0.05}, {0.02, 0.7}}, 0.01, 5)
	flat := make([]float64, 400)
	for i := range flat {
		flat[i] = 0.25
	}
	series = append(series, flat)
	for lag := 1; lag <= 3; lag++ {
		z, y := designRef(series, lag, -1, -1)
		xt := z.T()
		if _, err := mat.Solve(xt.Mul(z), xt.Mul(y)); !errors.Is(err, mat.ErrSingular) {
			t.Fatalf("lag %d: design with a constant zone is not singular: %v", lag, err)
		}
		checkStreamed(t, series, lag, true)
	}
}

func TestGrangerMatrixMatchesPairwise(t *testing.T) {
	series := seriesOf(tracegen.HighVolatility(4))
	for _, lag := range []int{1, 3} {
		var want []GrangerResult
		for effect := range series {
			for cause := range series {
				if cause == effect {
					continue
				}
				g, err := GrangerTest(series, effect, cause, lag)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, g)
			}
		}
		for _, workers := range []int{1, 4} {
			got, err := GrangerMatrix(series, lag, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lag %d, %d workers: GrangerMatrix\n%+v\nper-pair GrangerTest\n%+v", lag, workers, got, want)
			}
		}
	}
	if _, err := GrangerMatrix(series, 0, 2); err == nil {
		t.Fatal("GrangerMatrix accepted lag 0")
	}
	short := [][]float64{series[0][:8], series[1][:8], series[2][:8]}
	if _, err := GrangerMatrix(short, 2, 2); !errors.Is(err, ErrTooShort) {
		t.Fatalf("short series: %v, want ErrTooShort", err)
	}
}

// selectLagRef is the serial lag pick: fit lags in order and stop at
// the first infeasible one once a model exists.
func selectLagRef(series [][]float64, maxLag int) (*Model, error) {
	var best *Model
	for lag := 1; lag <= maxLag; lag++ {
		m, err := Fit(series, lag)
		if err != nil {
			if errors.Is(err, ErrTooShort) && best != nil {
				break
			}
			return nil, err
		}
		if best == nil || m.AIC < best.AIC {
			best = m
		}
	}
	return best, nil
}

func TestSelectLagFanOutMatchesSerial(t *testing.T) {
	long := synthesize(3000, []float64{0.1, 0.2, 0.3}, [][]float64{{0.5, 0.1, 0}, {0, 0.4, 0.2}, {0.1, 0, 0.6}}, 0.02, 8)
	// 40 samples of 3 zones support lags up to 9, so maxLag 14 runs
	// into ErrTooShort and must keep the best feasible model.
	short := [][]float64{long[0][:40], long[1][:40], long[2][:40]}
	for _, tc := range []struct {
		name   string
		series [][]float64
		maxLag int
	}{{"long", long, 6}, {"short", short, 14}} {
		want, err := selectLagRef(tc.series, tc.maxLag)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 5} {
			got, err := SelectLag(tc.series, tc.maxLag, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bits(got), bits(want)) {
				t.Fatalf("%s, %d workers: lag %d, serial pick lag %d", tc.name, workers, got.Lag, want.Lag)
			}
		}
	}
	// Infeasible from lag 1: the error surfaces, as in the serial pick.
	tiny := [][]float64{long[0][:4], long[1][:4], long[2][:4]}
	if _, err := SelectLag(tiny, 3, 2); !errors.Is(err, ErrTooShort) {
		t.Fatalf("tiny series: %v, want ErrTooShort", err)
	}
}
