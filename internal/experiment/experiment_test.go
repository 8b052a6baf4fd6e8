package experiment

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestSuiteDefaults(t *testing.T) {
	s := NewSuite(1)
	if s.Windows != DefaultWindows || s.Work != DefaultWork || s.HistorySpan != DefaultHistorySpan {
		t.Fatalf("defaults: %+v", s)
	}
	if got := s.Deadline(0.15); got != 23*trace.Hour {
		t.Fatalf("deadline(0.15) = %d, want %d", got, 23*trace.Hour)
	}
	if got := s.Deadline(0.50); got != 30*trace.Hour {
		t.Fatalf("deadline(0.50) = %d, want %d", got, 30*trace.Hour)
	}
	if got := s.OnDemandReferenceCost(); got != 48.0 {
		t.Fatalf("on-demand ref = %g, want 48.00", got)
	}
	if math.Abs(s.MinSpotReferenceCost()-5.40) > 1e-9 {
		t.Fatalf("min spot ref = %g, want 5.40", s.MinSpotReferenceCost())
	}
}

func TestRegimesAreCachedAndDistinct(t *testing.T) {
	s := NewSuite(2)
	low := s.Regime(RegimeLow)
	if s.Regime(RegimeLow) != low {
		t.Fatal("regime not cached")
	}
	high := s.Regime(RegimeHigh)
	if low == high {
		t.Fatal("regimes alias")
	}
	spike := s.Regime(RegimeLowSpike)
	if spike.MaxPrice() < 20 {
		t.Fatal("low-spike regime lacks the mega spike")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown regime did not panic")
		}
	}()
	s.Regime("nope")
}

func TestWindowsForTiling(t *testing.T) {
	s := NewQuickSuite(3, 10)
	set := s.Regime(RegimeLow)
	ws := s.windowsFor(set, 0.15)
	if len(ws) != 10 {
		t.Fatalf("windows = %d", len(ws))
	}
	runLen := s.Deadline(0.15) + 2*trace.Hour
	for _, w := range ws {
		if w.Run.Duration() != runLen {
			t.Fatalf("window %d run = %d, want %d", w.Index, w.Run.Duration(), runLen)
		}
		if w.History.Duration() != s.HistorySpan {
			t.Fatalf("window %d history = %d, want %d", w.Index, w.History.Duration(), s.HistorySpan)
		}
		if w.History.End() != w.Run.Start() {
			t.Fatalf("window %d history/run not contiguous", w.Index)
		}
	}
}

func TestParallelCoversAllIndices(t *testing.T) {
	s := NewQuickSuite(1, 4)
	s.Workers = 4
	n := 100
	hit := make([]int, n)
	s.parallel(n, func(i int) { hit[i]++ })
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
	// Degenerate sizes.
	s.parallel(0, func(int) { t.Fatal("fn called for n=0") })
	s.Workers = 1
	count := 0
	s.parallel(3, func(int) { count++ })
	if count != 3 {
		t.Fatalf("serial path executed %d", count)
	}
}

func TestFig4CellShape(t *testing.T) {
	s := NewQuickSuite(1, 4)
	cell, err := s.Fig4(RegimeHigh, 0.15, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cell.Bids) != 3 {
		t.Fatalf("bids = %v", cell.Bids)
	}
	for _, kind := range SinglePolicies {
		for _, bid := range cell.Bids {
			b := cell.Singles[kind][bid]
			if b.N != 4*3 { // windows × zones
				t.Fatalf("%s@%.2f N = %d, want 12", kind, bid, b.N)
			}
			if math.IsNaN(b.Median) || b.Median <= 0 {
				t.Fatalf("%s@%.2f median = %g", kind, bid, b.Median)
			}
		}
	}
	for _, bid := range cell.Bids {
		b := cell.BestRedundant[bid]
		if b.N != 4 {
			t.Fatalf("best-red@%.2f N = %d", bid, b.N)
		}
		// Best-case redundancy is a min over policies: its median can
		// never exceed any individual redundant policy's median, and
		// samples must be positive.
		if b.Min <= 0 {
			t.Fatalf("best-red@%.2f min = %g", bid, b.Min)
		}
	}
	if cell.OnDemandRef != 48 {
		t.Fatalf("od ref = %g", cell.OnDemandRef)
	}
}

func TestFig4RedundancyBeatsSinglesHighVolLowSlack(t *testing.T) {
	s := NewQuickSuite(7, 6)
	cell, err := s.Fig4(RegimeHigh, 0.15, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	red := cell.BestRedundant[0.81].Median
	per := cell.Singles[KindPeriodic][0.81].Median
	if red >= per {
		t.Fatalf("best-red median %.2f not below periodic %.2f at B=0.81", red, per)
	}
}

func TestTableWinnersAreValid(t *testing.T) {
	s := NewQuickSuite(1, 3)
	rows, err := s.Table(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	valid := map[string]bool{"redundancy": true}
	for _, kind := range SinglePolicies {
		valid[kind] = true
	}
	for _, row := range rows {
		if !valid[row.Policy] {
			t.Fatalf("winner %q invalid", row.Policy)
		}
		if row.Median <= 0 || math.IsInf(row.Median, 1) {
			t.Fatalf("median = %g", row.Median)
		}
		if row.RunnerUpMedian < row.Median {
			t.Fatalf("runner-up %g beats winner %g", row.RunnerUpMedian, row.Median)
		}
	}
}

func TestFig2(t *testing.T) {
	s := NewQuickSuite(1, 4)
	res, err := s.Fig2(RegimeHigh, 5*24*trace.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.End-res.Start != 15*trace.Hour {
		t.Fatalf("span = %d", res.End-res.Start)
	}
	for zone, frac := range res.ZoneUpFraction {
		if frac < 0 || frac > 1 {
			t.Fatalf("zone %s fraction %g", zone, frac)
		}
		if res.CombinedUpFraction < frac-1e-12 {
			t.Fatalf("combined %g below zone %s %g", res.CombinedUpFraction, zone, frac)
		}
	}
	if _, err := s.Fig2(RegimeHigh, 31*24*trace.Hour, 0); err == nil {
		t.Fatal("accepted an out-of-range offset")
	}
}

func TestVarAnalysis(t *testing.T) {
	s := NewQuickSuite(1, 4)
	res, err := s.VarAnalysis(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lag < 1 || res.Lag > 4 {
		t.Fatalf("lag = %d", res.Lag)
	}
	// §3.1: same-zone dependence dominates cross-zone by 1–2 orders of
	// magnitude; require at least a factor 5 on the synthetic year.
	if res.Dependence.Ratio < 5 {
		t.Fatalf("self/cross ratio = %g", res.Dependence.Ratio)
	}
}

func TestFig5CellAndBound(t *testing.T) {
	s := NewQuickSuite(5, 4)
	cell, err := s.Fig5(RegimeHigh, 0.15, 300)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Adaptive.N != 4 || cell.Periodic.N != 12 || cell.BestRedundant.N != 4 {
		t.Fatalf("sample counts: %+v", cell)
	}
	// The paper's §7.2 finding: Adaptive's cost never exceeded 20%
	// above on-demand; allow a hair of numerical headroom.
	if cell.Adaptive.Max > 1.25*cell.OnDemandRef {
		t.Fatalf("adaptive worst case %.2f above 1.25×on-demand", cell.Adaptive.Max)
	}
	if len(cell.AdaptiveSamples()) != 4 {
		t.Fatal("raw adaptive samples missing")
	}
}

func TestFig6LargeBidWorstCase(t *testing.T) {
	// Enough windows that some overlap the six-hour $20.02 spike 40%
	// into the month (the full suite's 80 windows tile densely).
	s := NewQuickSuite(9, 30)
	cell, err := s.Fig6(RegimeLowSpike, 0.15, 300)
	if err != nil {
		t.Fatal(err)
	}
	naive := cell.LargeBid[math.Inf(1)]
	// At least one window crosses the $20.02 spike: the naive variant's
	// worst case must far exceed Adaptive's.
	if naive.Max <= cell.Adaptive.Max {
		t.Fatalf("naive large-bid max %.2f not above adaptive max %.2f", naive.Max, cell.Adaptive.Max)
	}
	if naive.Max <= cell.OnDemandRef {
		t.Fatalf("naive large-bid max %.2f should exceed on-demand %.2f on the spike window", naive.Max, cell.OnDemandRef)
	}
	// The low threshold bounds the worst case below the naive variant.
	low := cell.LargeBid[0.27]
	if low.Max >= naive.Max {
		t.Fatalf("L=0.27 max %.2f not below naive max %.2f", low.Max, naive.Max)
	}
}

func TestThresholdLabel(t *testing.T) {
	if ThresholdLabel(math.Inf(1)) != "Naive" {
		t.Fatal("naive label")
	}
	if ThresholdLabel(20.02) != "Max" {
		t.Fatal("max label")
	}
	if ThresholdLabel(0.27) != "0.27" {
		t.Fatal("plain label")
	}
}

func TestNewPolicyKinds(t *testing.T) {
	for _, kind := range SinglePolicies {
		if NewPolicy(kind).Name() != kind {
			t.Fatalf("NewPolicy(%q) name mismatch", kind)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	NewPolicy("bogus")
}

func TestConvergence(t *testing.T) {
	s := NewQuickSuite(1, 8)
	pts, err := s.Convergence(RegimeHigh, 0.15, 300, KindPeriodic, 0.81, []int{2, 4, 8, 99})
	if err != nil {
		t.Fatal(err)
	}
	// The out-of-range count (99) is skipped.
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.Median <= 0 {
			t.Fatalf("point %d median = %g", i, p.Median)
		}
	}
	if pts[0].Windows != 2 || pts[2].Windows != 8 {
		t.Fatalf("window counts = %+v", pts)
	}
	if _, err := s.Convergence(RegimeHigh, 0.15, 300, KindPeriodic, 0.81, []int{99}); err == nil {
		t.Fatal("accepted only-invalid counts")
	}
}

func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("headline sweep is slow")
	}
	s := NewQuickSuite(1, 4)
	h, err := s.Headline()
	if err != nil {
		t.Fatal(err)
	}
	if h.AdaptiveVsOnDemand < 2 {
		t.Errorf("adaptive vs on-demand ratio = %.2f, want clearly above 2", h.AdaptiveVsOnDemand)
	}
	if h.RedundancyVsPeriodic <= 0 {
		t.Errorf("redundancy saving = %.3f, want positive", h.RedundancyVsPeriodic)
	}
	if h.AdaptiveWorstOverOnDemand > 1.3 {
		t.Errorf("adaptive worst case = %.2f× on-demand, want bounded near 1.2", h.AdaptiveWorstOverOnDemand)
	}
	t.Logf("headline: %+v", h)
}
