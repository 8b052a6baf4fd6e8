package trace

import (
	"testing"
	"testing/quick"
)

func TestUpIntervals(t *testing.T) {
	// bid 0.5: up at samples 0,1 (0-600), down 2 (600-900), up 3,4 (900-1500)
	s := mkSeries("z", 0, 0.3, 0.5, 0.9, 0.4, 0.2)
	ivs := s.UpIntervals(0.5)
	want := []Interval{{0, 600}, {900, 1500}}
	if len(ivs) != len(want) {
		t.Fatalf("UpIntervals = %v, want %v", ivs, want)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Fatalf("UpIntervals[%d] = %v, want %v", i, ivs[i], want[i])
		}
	}
}

func TestUpIntervalsAllDownAllUp(t *testing.T) {
	s := mkSeries("z", 0, 1, 1, 1)
	if ivs := s.UpIntervals(0.5); len(ivs) != 0 {
		t.Fatalf("all-down UpIntervals = %v", ivs)
	}
	if ivs := s.UpIntervals(2); len(ivs) != 1 || ivs[0] != (Interval{0, 900}) {
		t.Fatalf("all-up UpIntervals = %v", ivs)
	}
}

func TestUpFraction(t *testing.T) {
	s := mkSeries("z", 0, 0.3, 0.5, 0.9, 0.4)
	if got := s.UpFraction(0.5); got != 0.75 {
		t.Fatalf("UpFraction = %g, want 0.75", got)
	}
	if got := mkSeries("z", 0).UpFraction(1); got != 0 {
		t.Fatalf("empty UpFraction = %g", got)
	}
}

func TestCombinedUpIntervals(t *testing.T) {
	a := mkSeries("a", 0, 0.3, 0.9, 0.9, 0.3)
	b := mkSeries("b", 0, 0.9, 0.3, 0.9, 0.9)
	set := MustNewSet(a, b)
	// bid 0.5: a up at samples 0,3; b up at sample 1; combined up 0,1,3.
	ivs := set.CombinedUpIntervals(0.5)
	want := []Interval{{0, 600}, {900, 1200}}
	if len(ivs) != 2 || ivs[0] != want[0] || ivs[1] != want[1] {
		t.Fatalf("CombinedUpIntervals = %v, want %v", ivs, want)
	}
	if got := set.CombinedUpFraction(0.5); got != 0.75 {
		t.Fatalf("CombinedUpFraction = %g, want 0.75", got)
	}
}

// Combined availability must dominate every individual zone's availability.
func TestCombinedDominatesProperty(t *testing.T) {
	f := func(pa, pb []uint8, bidRaw uint8) bool {
		n := len(pa)
		if len(pb) < n {
			n = len(pb)
		}
		if n == 0 {
			return true
		}
		ap := make([]float64, n)
		bp := make([]float64, n)
		for i := 0; i < n; i++ {
			ap[i] = float64(pa[i]) / 100
			bp[i] = float64(pb[i]) / 100
		}
		bid := float64(bidRaw) / 100
		set := MustNewSet(mkSeries("a", 0, ap...), mkSeries("b", 0, bp...))
		comb := set.CombinedUpFraction(bid)
		for _, s := range set.Series {
			if s.UpFraction(bid) > comb+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanUptime(t *testing.T) {
	s := mkSeries("z", 0, 0.3, 0.3, 0.9, 0.3)
	// up intervals: [0,600) and [900,1200) → lengths 600, 300, mean 450.
	if got := s.meanUptime(0.5); got != 450 {
		t.Fatalf("meanUptime = %g, want 450", got)
	}
	if got := s.meanUptime(0.1); got != 0 {
		t.Fatalf("meanUptime never-up = %g, want 0", got)
	}
}

func TestUpAt(t *testing.T) {
	s := mkSeries("z", 0, 0.3, 0.9)
	if !s.upAt(0, 0.5) || s.upAt(300, 0.5) {
		t.Fatal("upAt mismatch")
	}
}

// upAt reports whether the zone price at time t is at or below bid.
func (s *Series) upAt(t int64, bid float64) bool { return s.PriceAt(t) <= bid }

// meanUptime returns the average length, in seconds, of the zone's up
// intervals at the given bid; 0 when the zone is never up. This is the
// empirical counterpart of the Markov model's expected uptime.
func (s *Series) meanUptime(bid float64) float64 {
	ivs := s.UpIntervals(bid)
	if len(ivs) == 0 {
		return 0
	}
	var total int64
	for _, iv := range ivs {
		total += iv.End - iv.Start
	}
	return float64(total) / float64(len(ivs))
}
