package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarize(t *testing.T) {
	s := mkSeries("z", 0, 1, 2, 3, 4)
	sum := s.Summarize()
	if sum.Samples != 4 {
		t.Fatalf("Samples = %d", sum.Samples)
	}
	if !almostEqual(sum.Mean, 2.5, 1e-12) {
		t.Fatalf("Mean = %g, want 2.5", sum.Mean)
	}
	if !almostEqual(sum.Variance, 1.25, 1e-12) {
		t.Fatalf("Variance = %g, want 1.25", sum.Variance)
	}
	if sum.Min != 1 || sum.Max != 4 {
		t.Fatalf("Min/Max = %g/%g", sum.Min, sum.Max)
	}
	if !almostEqual(sum.Median, 2.5, 1e-12) {
		t.Fatalf("Median = %g, want 2.5", sum.Median)
	}
	if sum.Spikes != 2 { // 3 and 4 exceed the default 2.40 threshold
		t.Fatalf("Spikes = %d, want 2", sum.Spikes)
	}
	if sum.Changes != 3 {
		t.Fatalf("Changes = %d, want 3", sum.Changes)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	sum := mkSeries("z", 0).Summarize()
	if !math.IsNaN(sum.Mean) || !math.IsNaN(sum.Median) {
		t.Fatalf("empty summary should be NaN, got %+v", sum)
	}
}

func TestQuantile(t *testing.T) {
	s := mkSeries("z", 0, 10, 20, 30, 40, 50)
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50}, {-1, 10}, {2, 50},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
}

func TestQuantileProperties(t *testing.T) {
	// Quantile is monotone in q and bounded by min/max.
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		prices := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			prices[i] = math.Abs(math.Mod(v, 100))
		}
		s := mkSeries("z", 0, prices...)
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		lo, hi := s.Quantile(q1), s.Quantile(q2)
		sum := s.Summarize()
		return lo <= hi+1e-9 && lo >= sum.Min-1e-9 && hi <= sum.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClassifyVolatility(t *testing.T) {
	calm := MustNewSet(mkSeries("a", 0, 0.30, 0.31, 0.30, 0.29))
	if got := calm.ClassifyVolatility(); got != LowVolatility {
		t.Fatalf("calm volatility = %v, want low", got)
	}
	wild := MustNewSet(mkSeries("a", 0, 0.30, 3.0, 0.4, 2.5))
	if got := wild.ClassifyVolatility(); got != HighVolatility {
		t.Fatalf("wild volatility = %v, want high", got)
	}
	mid := MustNewSet(mkSeries("a", 0, 0.30, 0.8, 0.3, 0.8))
	if got := mid.ClassifyVolatility(); got != ModerateVolatility {
		t.Fatalf("mid volatility = %v, want moderate", got)
	}
}

func TestVolatilityString(t *testing.T) {
	if LowVolatility.String() != "low" || HighVolatility.String() != "high" ||
		ModerateVolatility.String() != "moderate" || Volatility(42).String() != "unknown" {
		t.Fatal("Volatility.String mismatch")
	}
}

func TestSetMinMaxPrice(t *testing.T) {
	set := MustNewSet(mkSeries("a", 0, 0.5, 0.7), mkSeries("b", 0, 0.2, 1.9))
	if got := set.minPrice(); got != 0.2 {
		t.Fatalf("minPrice = %g", got)
	}
	if got := set.maxPrice(); got != 1.9 {
		t.Fatalf("maxPrice = %g", got)
	}
}

// minPrice returns the minimum price over all zones in the set.
func (t *Set) minPrice() float64 {
	min := math.Inf(1)
	for _, s := range t.Series {
		if sum := s.Summarize(); sum.Min < min {
			min = sum.Min
		}
	}
	return min
}

// maxPrice returns the maximum price over all zones in the set.
func (t *Set) maxPrice() float64 {
	max := math.Inf(-1)
	for _, s := range t.Series {
		if sum := s.Summarize(); sum.Max > max {
			max = sum.Max
		}
	}
	return max
}
