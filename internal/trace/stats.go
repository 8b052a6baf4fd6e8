package trace

import (
	"math"
	"sort"
)

// Summary holds descriptive statistics of one price series, matching the
// quantities the paper reports when characterising its low- and
// high-volatility windows (§5): mean, variance, extremes and movement
// counts.
type Summary struct {
	Zone     string
	Samples  int
	Mean     float64
	Variance float64 // population variance, as the paper quotes ("variance of less than 0.01")
	Stddev   float64
	Min      float64
	Max      float64
	Median   float64
	Changes  int // number of price movements
	// Spikes counts samples strictly above SpikeThreshold.
	Spikes         int
	SpikeThreshold float64
}

// DefaultSpikeThreshold marks prices the paper treats as spikes: CC2
// on-demand is $2.40/h and the paper reports occasional spot spikes up to
// $3.00 with a worst observed price of $20.02.
const DefaultSpikeThreshold = 2.40

// Summarize computes descriptive statistics for the series using
// DefaultSpikeThreshold.
func (s *Series) Summarize() Summary { return s.SummarizeWithThreshold(DefaultSpikeThreshold) }

// SummarizeWithThreshold computes descriptive statistics, counting spikes
// above the given threshold.
func (s *Series) SummarizeWithThreshold(spike float64) Summary {
	out := Summary{Zone: s.Zone, Samples: len(s.Prices), SpikeThreshold: spike}
	if len(s.Prices) == 0 {
		out.Min, out.Max, out.Mean, out.Median = math.NaN(), math.NaN(), math.NaN(), math.NaN()
		return out
	}
	out.Min, out.Max = s.Prices[0], s.Prices[0]
	var sum float64
	for _, p := range s.Prices {
		sum += p
		if p < out.Min {
			out.Min = p
		}
		if p > out.Max {
			out.Max = p
		}
		if p > spike {
			out.Spikes++
		}
	}
	n := float64(len(s.Prices))
	out.Mean = sum / n
	var ss float64
	for _, p := range s.Prices {
		d := p - out.Mean
		ss += d * d
	}
	out.Variance = ss / n
	out.Stddev = math.Sqrt(out.Variance)
	out.Changes = s.Changes()

	sorted := make([]float64, len(s.Prices))
	copy(sorted, s.Prices)
	sort.Float64s(sorted)
	out.Median = quantileSorted(sorted, 0.5)
	return out
}

// Quantile returns the q-quantile (0 <= q <= 1) of the series prices
// using linear interpolation between order statistics.
func (s *Series) Quantile(q float64) float64 {
	if len(s.Prices) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(s.Prices))
	copy(sorted, s.Prices)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Volatility classifies a window in the spirit of the paper's §5: a
// window is low-volatility when every zone's price variance stays below
// LowVarianceCutoff, high-volatility when any zone's variance exceeds
// HighVarianceCutoff, and moderate otherwise.
type Volatility int

// Volatility classes.
const (
	LowVolatility Volatility = iota
	ModerateVolatility
	HighVolatility
)

// Cutoffs taken from the paper's window characterisation: the March 2013
// low-volatility window has per-zone variance below 0.01; the January
// 2013 high-volatility window has variance up to 2.02.
const (
	LowVarianceCutoff  = 0.01
	HighVarianceCutoff = 0.25
)

// String implements fmt.Stringer.
func (v Volatility) String() string {
	switch v {
	case LowVolatility:
		return "low"
	case ModerateVolatility:
		return "moderate"
	case HighVolatility:
		return "high"
	default:
		return "unknown"
	}
}

// ClassifyVolatility classifies the set's window.
func (t *Set) ClassifyVolatility() Volatility {
	maxVar := 0.0
	for _, s := range t.Series {
		v := s.Summarize().Variance
		if v > maxVar {
			maxVar = v
		}
	}
	switch {
	case maxVar < LowVarianceCutoff:
		return LowVolatility
	case maxVar > HighVarianceCutoff:
		return HighVolatility
	default:
		return ModerateVolatility
	}
}
