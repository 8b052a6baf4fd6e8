package markov

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// TestFitEdgeInputs covers the degenerate fits: empty history, bad
// step, and a single sample.
func TestFitEdgeInputs(t *testing.T) {
	if _, err := Fit(nil, 300); err != ErrNoHistory {
		t.Fatalf("Fit(nil) = %v, want ErrNoHistory", err)
	}
	if _, err := Fit([]float64{}, 300); err != ErrNoHistory {
		t.Fatalf("Fit(empty) = %v, want ErrNoHistory", err)
	}
	for _, step := range []int64{0, -300} {
		if _, err := Fit([]float64{0.1}, step); err == nil {
			t.Fatalf("Fit with step %d accepted", step)
		}
	}
	// One sample: a single absorbing state.
	m, err := Fit([]float64{0.2}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 1 || m.Trans[0][0] != 1 {
		t.Fatalf("single-sample chain = %+v, want one absorbing state", m)
	}
}

// TestSingleStateChainUptime checks the zero-length-history /
// single-state extremes of the uptime solver: a constant price either
// never crosses the bid (infinite uptime) or starts out of bid (zero).
func TestSingleStateChainUptime(t *testing.T) {
	m, err := Fit([]float64{0.30, 0.30, 0.30}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 1 {
		t.Fatalf("constant history fitted %d states", m.NumStates())
	}
	if u := m.ExpectedUptime(0.30, 0.30); !math.IsInf(u, 1) {
		t.Fatalf("bid at the only state: uptime = %g, want +Inf", u)
	}
	if u := m.ExpectedUptime(0.29, 0.30); u != 0 {
		t.Fatalf("bid below the only state: uptime = %g, want 0", u)
	}
	if p := m.survivalProbability(0.29, 0.30, 5); p != 0 {
		t.Fatalf("out-of-bid survival = %g, want 0", p)
	}
	if p := m.survivalProbability(0.30, 0.30, 5); p != 1 {
		t.Fatalf("never-failing survival = %g, want 1", p)
	}
}

// TestTwoStateChainUptime pins a hand-computable case: a two-state
// chain that leaves the up state with probability q each step has
// geometric uptime E[T_u] = Step/q.
func TestTwoStateChainUptime(t *testing.T) {
	// History low,low,low,high,low,... gives p(low→high) = 1/4 over the
	// 8 transitions below; build the chain directly for exact control.
	m := &Model{
		States: []float64{0.10, 1.00},
		Trans: [][]float64{
			{0.75, 0.25},
			{0.50, 0.50},
		},
		Step: 300,
	}
	// Bid admits only the low state: geometric with q = 0.25, so
	// E[T_u] = 300/0.25 = 1200 seconds.
	got := m.ExpectedUptime(0.10, 0.10)
	if math.Abs(got-1200) > 1 {
		t.Fatalf("two-state uptime = %g, want 1200", got)
	}
	// Survival after k steps is 0.75^k.
	if p := m.survivalProbability(0.10, 0.10, 3); math.Abs(p-0.75*0.75*0.75) > 1e-12 {
		t.Fatalf("survival(3) = %g, want %g", p, 0.75*0.75*0.75)
	}
}

// TestQuantizeEdges covers the non-positive quantum passthrough and
// bucket collapsing.
func TestQuantizeEdges(t *testing.T) {
	in := []float64{0.12, 0.13, 0.17}
	if got := Quantize(in, 0); &got[0] != &in[0] {
		t.Fatal("zero quantum must return the input unchanged")
	}
	if got := Quantize(in, -1); &got[0] != &in[0] {
		t.Fatal("negative quantum must return the input unchanged")
	}
	got := Quantize(in, 0.05)
	want := []float64{0.10, 0.15, 0.15}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("Quantize = %v, want %v", got, want)
		}
	}
	if got := Quantize(nil, 0.05); len(got) != 0 {
		t.Fatalf("Quantize(nil) = %v", got)
	}
}

// TestFitSeriesEmptyWindow checks a window that contains no samples
// surfaces ErrNoHistory rather than a bogus chain.
func TestFitSeriesEmptyWindow(t *testing.T) {
	s := &trace.Series{Zone: "z", Epoch: 10_000, Step: 300, Prices: []float64{0.1, 0.2}}
	// now long before the series begins: the trailing window is empty.
	if _, err := fitSeries(s, 5_000, 600); err != ErrNoHistory {
		t.Fatalf("fitSeries(empty window) = %v, want ErrNoHistory", err)
	}
	// A valid trailing window still fits.
	if _, err := fitSeries(s, 10_600, 600); err != nil {
		t.Fatalf("fitSeries(valid window) = %v", err)
	}
}

// TestStateOfEdges checks nearest-state resolution at and beyond the
// state range.
func TestStateOfEdges(t *testing.T) {
	m := &Model{States: []float64{0.10, 0.20, 0.40}}
	cases := []struct {
		price float64
		want  int
	}{
		{0.01, 0}, // below the range
		{0.10, 0}, // exact
		{0.14, 0}, // closer to 0.10
		{0.16, 1}, // closer to 0.20
		{0.15, 0}, // tie goes low
		{0.40, 2}, // exact top
		{9.99, 2}, // above the range
	}
	for _, tc := range cases {
		if got := m.StateOf(tc.price); got != tc.want {
			t.Errorf("StateOf(%g) = %d, want %d", tc.price, got, tc.want)
		}
	}
}
