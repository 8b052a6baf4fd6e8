package tracegen

import (
	"fmt"

	"repro/internal/trace"
)

// Default zone names mirror the three US-East CC2 zones the paper uses.
var DefaultZoneNames = []string{"us-east-1a", "us-east-1b", "us-east-1c"}

// SamplesPerDay is the number of 5-minute samples in a day.
const SamplesPerDay = 24 * 12

// SamplesPerMonth is the number of 5-minute samples in a 30-day month,
// the granularity at which the year trace is composed.
const SamplesPerMonth = 30 * SamplesPerDay

// LowVolatilityConfig models the paper's March 2013 window: per-zone
// mean ≈ $0.30 with variance below 0.01. Prices mostly hold, moves are
// small, and spikes are rare and modest.
func LowVolatilityConfig(seed uint64, samples int) Config {
	zones := make([]ZoneConfig, len(DefaultZoneNames))
	bases := []float64{0.30, 0.29, 0.31}
	for i, name := range DefaultZoneNames {
		zones[i] = ZoneConfig{
			Name:        name,
			Base:        bases[i],
			Floor:       0.27,
			MoveProb:    0.05,
			MoveSigma:   0.015,
			Revert:      0.3,
			SpikeProb:   0.0004,
			SpikeMin:    0.45,
			SpikeMax:    0.85,
			SpikeMinLen: 1,
			SpikeMaxLen: 3,
		}
	}
	return Config{
		Zones:             zones,
		Samples:           samples,
		SharedShockWeight: 0.08,
		Seed:              seed,
	}
}

// HighVolatilityConfig models the paper's January 2013 window: per-zone
// means between $0.70 and $1.12, variances well above the low-volatility
// cutoff, and recurring spikes mostly up to ≈ $3.00, occasionally
// overshooting the $3.07 top of the bid grid and lasting up to a couple
// of hours (the paper's high-volatility windows force even high bids
// onto the on-demand market at times).
func HighVolatilityConfig(seed uint64, samples int) Config {
	// The regime is "cheap floor plus tall, frequent spikes": the price
	// sits near a modest base most of the time and repeatedly jumps to
	// spike plateaus of up to $3.40 that last from minutes to a couple
	// of hours. This matches the paper's window statistics (means
	// 0.70–1.12 with variance up to ≈ 2) far better than diffusion
	// around a high mean would, and it produces the availability
	// structure the paper exploits: any single zone is down during its
	// spikes, while the union of three weakly-coupled zones is almost
	// always up at a moderate bid.
	zones := []ZoneConfig{
		{
			Name: DefaultZoneNames[0], Base: 0.35, Floor: 0.27,
			MoveProb: 0.20, MoveSigma: 0.08, Revert: 0.2, Ceil: 3.00,
			SpikeProb: 0.020, SpikeMin: 1.00, SpikeMax: 3.00,
			SpikeMinLen: 1, SpikeMaxLen: 18,
		},
		{
			Name: DefaultZoneNames[1], Base: 0.40, Floor: 0.27,
			MoveProb: 0.20, MoveSigma: 0.10, Revert: 0.2, Ceil: 3.00,
			SpikeProb: 0.022, SpikeMin: 1.20, SpikeMax: 3.20,
			SpikeMinLen: 1, SpikeMaxLen: 20,
		},
		{
			Name: DefaultZoneNames[2], Base: 0.45, Floor: 0.27,
			MoveProb: 0.20, MoveSigma: 0.12, Revert: 0.2, Ceil: 3.00,
			SpikeProb: 0.025, SpikeMin: 1.50, SpikeMax: 3.40,
			SpikeMinLen: 1, SpikeMaxLen: 24,
		},
	}
	return Config{
		Zones:             zones,
		Samples:           samples,
		SharedShockWeight: 0.08,
		Seed:              seed,
	}
}

// ModerateVolatilityConfig fills the months of the year trace between
// the two regimes the paper highlights.
func ModerateVolatilityConfig(seed uint64, samples int) Config {
	zones := make([]ZoneConfig, len(DefaultZoneNames))
	bases := []float64{0.45, 0.52, 0.48}
	for i, name := range DefaultZoneNames {
		zones[i] = ZoneConfig{
			Name:        name,
			Base:        bases[i],
			Floor:       0.27,
			MoveProb:    0.15,
			MoveSigma:   0.10,
			Revert:      0.2,
			SpikeProb:   0.001,
			SpikeMin:    1.20,
			SpikeMax:    2.60,
			SpikeMinLen: 1,
			SpikeMaxLen: 4,
		}
	}
	return Config{
		Zones:             zones,
		Samples:           samples,
		SharedShockWeight: 0.08,
		Seed:              seed,
	}
}

// LowVolatility generates one month of low-volatility trace.
func LowVolatility(seed uint64) *trace.Set {
	return MustGenerate(LowVolatilityConfig(seed, SamplesPerMonth))
}

// HighVolatility generates one month of high-volatility trace.
func HighVolatility(seed uint64) *trace.Set {
	return MustGenerate(HighVolatilityConfig(seed, SamplesPerMonth))
}

// MaxObservedSpike is the worst spot price the paper reports in its
// 12-month history ($20.02, March 13–14 2013).
const MaxObservedSpike = 20.02

// InjectSpike overwrites zone zoneIdx of the set with a price plateau of
// the given level over [start, start+duration) seconds. It reproduces
// the extreme events the generator's regular spike regime keeps rare,
// e.g. the $20.02 spike behind the paper's Large-bid worst case.
func InjectSpike(set *trace.Set, zoneIdx int, start, duration int64, level float64) error {
	if zoneIdx < 0 || zoneIdx >= set.NumZones() {
		return fmt.Errorf("tracegen: zone index %d out of range", zoneIdx)
	}
	s := set.Series[zoneIdx]
	if start < s.Start() || start+duration > s.End() {
		return fmt.Errorf("tracegen: spike [%d,%d) outside trace [%d,%d)", start, start+duration, s.Start(), s.End())
	}
	for t := start; t < start+duration; t += s.Step {
		s.Prices[s.Index(t)] = level
	}
	return nil
}

// LowVolatilityWithMegaSpike generates a month of low-volatility trace
// with the $20.02 spike the paper observed during its March 2013 window,
// placed roughly 40 % into the month for six hours in the first zone.
func LowVolatilityWithMegaSpike(seed uint64) *trace.Set {
	set := LowVolatility(seed)
	start := set.Start() + set.Duration()*2/5
	start = start / set.Step() * set.Step()
	if err := InjectSpike(set, 0, start, 6*trace.Hour, MaxObservedSpike); err != nil {
		panic(err)
	}
	return set
}

// Concat joins sets with identical zones into one contiguous trace; the
// epoch of each subsequent set is rewritten to follow its predecessor.
func Concat(sets ...*trace.Set) (*trace.Set, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("tracegen: nothing to concatenate")
	}
	first := sets[0]
	out := make([]*trace.Series, first.NumZones())
	for i, s := range first.Series {
		out[i] = &trace.Series{Zone: s.Zone, Epoch: s.Epoch, Step: s.Step, Prices: append([]float64(nil), s.Prices...)}
	}
	for _, set := range sets[1:] {
		if set.NumZones() != first.NumZones() {
			return nil, fmt.Errorf("tracegen: zone count mismatch in concat")
		}
		for i, s := range set.Series {
			if s.Zone != out[i].Zone || s.Step != out[i].Step {
				return nil, fmt.Errorf("tracegen: zone %q incompatible with %q", s.Zone, out[i].Zone)
			}
			out[i].Prices = append(out[i].Prices, s.Prices...)
		}
	}
	return trace.NewSet(out...)
}

// Year generates a 12-month composite trace in the spirit of the paper's
// December 2012 – January 2014 history: months alternate between calm,
// moderate and volatile regimes, one calm month carries the $20.02 mega
// spike, and each month draws from an independent seeded stream.
func Year(seed uint64) *trace.Set {
	type monthKind int
	const (
		calm monthKind = iota
		calmSpike
		moderate
		wild
	)
	pattern := []monthKind{wild, calm, calmSpike, calm, moderate, calm, wild, calm, moderate, calm, wild, calm}
	months := make([]*trace.Set, len(pattern))
	for i, kind := range pattern {
		mseed := seed + uint64(i)*0x1000193
		switch kind {
		case calm:
			months[i] = LowVolatility(mseed)
		case calmSpike:
			months[i] = LowVolatilityWithMegaSpike(mseed)
		case moderate:
			months[i] = MustGenerate(ModerateVolatilityConfig(mseed, SamplesPerMonth))
		case wild:
			months[i] = HighVolatility(mseed)
		}
	}
	set, err := Concat(months...)
	if err != nil {
		panic(err)
	}
	return set
}

// Preset generates the named synthetic market the command-line tools
// share: "low", "high", "low-spike" or "year".
func Preset(name string, seed uint64) (*trace.Set, error) {
	switch name {
	case "low":
		return LowVolatility(seed), nil
	case "high":
		return HighVolatility(seed), nil
	case "low-spike":
		return LowVolatilityWithMegaSpike(seed), nil
	case "year":
		return Year(seed), nil
	}
	return nil, fmt.Errorf("unknown preset %q", name)
}
