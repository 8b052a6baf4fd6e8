package markov

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

func TestFitBasic(t *testing.T) {
	// Alternating 0.3, 0.5: two states with deterministic swap.
	prices := []float64{0.3, 0.5, 0.3, 0.5, 0.3, 0.5, 0.3}
	m, err := Fit(prices, 300)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 2 {
		t.Fatalf("states = %v", m.States)
	}
	if m.Trans[0][1] != 1 || m.Trans[1][0] != 1 {
		t.Fatalf("trans = %v", m.Trans)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, 300); err == nil {
		t.Fatal("Fit accepted empty history")
	}
	if _, err := Fit([]float64{1}, 0); err == nil {
		t.Fatal("Fit accepted zero step")
	}
}

func TestRowsSumToOneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		prices := make([]float64, len(raw))
		for i, v := range raw {
			prices[i] = float64(v%10)/10 + 0.27
		}
		m, err := Fit(prices, 300)
		if err != nil {
			return false
		}
		for _, row := range m.Trans {
			var sum float64
			for _, p := range row {
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStateOf(t *testing.T) {
	m, err := Fit([]float64{0.3, 0.5, 0.9, 0.3}, 300)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		price float64
		want  int
	}{
		{0.0, 0}, {0.3, 0}, {0.39, 0}, {0.41, 1}, {0.5, 1}, {0.7, 1}, {0.71, 2}, {5, 2},
	}
	for _, c := range cases {
		if got := m.StateOf(c.price); got != c.want {
			t.Errorf("StateOf(%g) = %d, want %d", c.price, got, c.want)
		}
	}
}

func TestExpectedUptimeDeterministicChain(t *testing.T) {
	// 0.3 → 0.3 with p=0.5, 0.3 → 0.9 with p=0.5 (estimated from data
	// with equal counts); bid 0.5: geometric survival with p=0.5 →
	// E[steps to die] = 2 → E[T_u] = 2·300 = 600 s.
	prices := []float64{0.3, 0.3, 0.9, 0.3, 0.3, 0.9, 0.3, 0.3, 0.9, 0.3}
	m, err := Fit(prices, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Estimated from counts: 0.3→0.3 occurs 3 times and 0.3→0.9 occurs
	// 3 times, so p(die) = 1/2 → E[steps] = 2 → E[T_u] = 600.
	got := m.ExpectedUptime(0.5, 0.3)
	want := 2.0 * 300
	if math.Abs(got-want) > 1 {
		t.Fatalf("ExpectedUptime = %g, want %g", got, want)
	}
}

func TestExpectedUptimeOutOfBid(t *testing.T) {
	m, _ := Fit([]float64{0.3, 0.9, 0.3, 0.9}, 300)
	if got := m.ExpectedUptime(0.5, 0.9); got != 0 {
		t.Fatalf("out-of-bid uptime = %g", got)
	}
}

func TestExpectedUptimeAllUp(t *testing.T) {
	m, _ := Fit([]float64{0.3, 0.4, 0.3, 0.4}, 300)
	if got := m.ExpectedUptime(1.0, 0.3); !math.IsInf(got, 1) {
		t.Fatalf("bid above all states should be +Inf, got %g", got)
	}
}

func TestExpectedUptimeMonotoneInBid(t *testing.T) {
	set := tracegen.HighVolatility(5)
	s := set.Series[0].Slice(0, 2*24*trace.Hour)
	m, err := Fit(s.Prices, 300)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	cur := s.Prices[len(s.Prices)-1]
	for _, bid := range []float64{0.27, 0.47, 0.87, 1.47, 2.47, 3.07} {
		u := m.ExpectedUptime(bid, cur)
		if math.IsInf(u, 1) {
			break
		}
		if u < prev-1e-6 {
			t.Fatalf("uptime decreased from %g to %g at bid %g", prev, u, bid)
		}
		prev = u
	}
}

func TestSurvivalProbability(t *testing.T) {
	prices := []float64{0.3, 0.3, 0.9, 0.3, 0.3, 0.9, 0.3, 0.3, 0.9, 0.3}
	m, _ := Fit(prices, 300)
	s0 := m.survivalProbability(0.5, 0.3, 0)
	if s0 != 1 {
		t.Fatalf("survival at 0 steps = %g", s0)
	}
	s1 := m.survivalProbability(0.5, 0.3, 1)
	if math.Abs(s1-0.5) > 1e-9 {
		t.Fatalf("survival at 1 step = %g, want 0.5", s1)
	}
	if m.survivalProbability(0.5, 0.9, 3) != 0 {
		t.Fatal("survival from out-of-bid state should be 0")
	}
	// Monotone non-increasing in k.
	prev := 1.0
	for k := 1; k < 20; k++ {
		s := m.survivalProbability(0.5, 0.3, k)
		if s > prev+1e-12 {
			t.Fatalf("survival increased at k=%d", k)
		}
		prev = s
	}
}

func TestCombinedExpectedUptime(t *testing.T) {
	prices := []float64{0.3, 0.3, 0.9, 0.3, 0.3, 0.9, 0.3, 0.3, 0.9, 0.3}
	m, _ := Fit(prices, 300)
	single := m.ExpectedUptimeExact(0.5, 0.3)
	combined := combinedExpectedUptime([]*Model{m, m, m}, 0.5, []float64{0.3, 0.3, 0.3})
	if math.Abs(combined-3*single) > 1e-6 {
		t.Fatalf("combined = %g, want %g", combined, 3*single)
	}
	// Any infinite zone makes the combination infinite.
	calm, _ := Fit([]float64{0.3, 0.3, 0.3}, 300)
	comb := combinedExpectedUptime([]*Model{m, calm}, 0.5, []float64{0.3, 0.3})
	if !math.IsInf(comb, 1) {
		t.Fatalf("combined with never-failing zone = %g, want +Inf", comb)
	}
}

func TestFitSeries(t *testing.T) {
	set := tracegen.LowVolatility(9)
	s := set.Series[0]
	now := s.Start() + 5*24*trace.Hour
	m, err := fitSeries(s, now, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() == 0 {
		t.Fatal("no states fitted")
	}
	if _, err := fitSeries(s, s.Start(), 300); err == nil {
		t.Fatal("fitSeries accepted an empty window")
	}
}

func TestAbsorbingUnknownState(t *testing.T) {
	// Final sample introduces a state with no outgoing transitions; it
	// must be treated as absorbing, not a NaN row.
	m, err := Fit([]float64{0.3, 0.3, 0.7}, 300)
	if err != nil {
		t.Fatal(err)
	}
	i := m.StateOf(0.7)
	if m.Trans[i][i] != 1 {
		t.Fatalf("unseen-exit state row = %v, want absorbing", m.Trans[i])
	}
	// From 0.7 with bid 1.0 the chain never leaves: infinite uptime.
	if got := m.ExpectedUptime(1.0, 0.7); !math.IsInf(got, 1) {
		t.Fatalf("absorbing uptime = %g", got)
	}
}

// fitSeries fits the chain to the trailing history seconds of the series
// ending at time now. history <= 0 selects DefaultHistory.
func fitSeries(s *trace.Series, now, history int64) (*Model, error) {
	if history <= 0 {
		history = DefaultHistory
	}
	win := s.Slice(now-history, now)
	if win.Len() == 0 {
		return nil, ErrNoHistory
	}
	return Fit(win.Prices, s.Step)
}

// survivalProbability returns the probability the instance is still up
// after k steps, starting from currentPrice at the given bid.
func (m *Model) survivalProbability(bid, currentPrice float64, k int) float64 {
	start := m.StateOf(currentPrice)
	if m.States[start] > bid {
		return 0
	}
	n := len(m.States)
	prob := make([]float64, n)
	prob[start] = 1
	next := make([]float64, n)
	for step := 0; step < k; step++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			pi := prob[i]
			if pi == 0 || m.States[i] > bid {
				continue
			}
			row := m.Trans[i]
			for j := 0; j < n; j++ {
				next[j] += pi * row[j]
			}
		}
		prob, next = next, prob
	}
	var alive float64
	for i := 0; i < n; i++ {
		if m.States[i] <= bid {
			alive += prob[i]
		}
	}
	return alive
}

// combinedExpectedUptime sums per-zone expected uptimes, the paper's
// §4.2 rule for redundant zones with independent price movements: "the
// combined E[T_u] is the sum of E[T_u] of individual zones". It uses
// the closed-form solver.
func combinedExpectedUptime(models []*Model, bid float64, currentPrices []float64) float64 {
	var total float64
	for i, m := range models {
		u := m.ExpectedUptimeExact(bid, currentPrices[i])
		if math.IsInf(u, 1) {
			return math.Inf(1)
		}
		total += u
	}
	return total
}
