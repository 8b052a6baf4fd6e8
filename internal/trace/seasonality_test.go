package trace

import (
	"math"
	"testing"
)

func TestHourOfDayProfile(t *testing.T) {
	// Two days: $0.20 during hours 0-11, $0.40 during hours 12-23.
	var prices []float64
	for d := 0; d < 2; d++ {
		for h := 0; h < 24; h++ {
			v := 0.20
			if h >= 12 {
				v = 0.40
			}
			for i := 0; i < 12; i++ {
				prices = append(prices, v)
			}
		}
	}
	s := NewSeries("z", 0, prices)
	profile := s.hourOfDayProfile()
	if math.Abs(profile[3]-0.20) > 1e-9 || math.Abs(profile[15]-0.40) > 1e-9 {
		t.Fatalf("profile = %v", profile)
	}
	// Index = (0.40-0.20)/0.30 ≈ 0.667.
	if idx := s.seasonalityIndex(); math.Abs(idx-0.2/0.3) > 1e-9 {
		t.Fatalf("index = %g", idx)
	}
}

func TestSeasonalityFlat(t *testing.T) {
	prices := make([]float64, 12*48)
	for i := range prices {
		prices[i] = 0.30
	}
	s := NewSeries("z", 0, prices)
	if idx := s.seasonalityIndex(); idx != 0 {
		t.Fatalf("flat index = %g", idx)
	}
}

func TestSeasonalityNegativeEpochSafe(t *testing.T) {
	s := NewSeries("z", -7200, []float64{0.3, 0.3, 0.3})
	profile := s.hourOfDayProfile()
	for _, v := range profile {
		if v < 0 {
			t.Fatal("negative profile entry")
		}
	}
}

// seasonalityIndex summarises the daily cycle strength: the relative
// spread (max − min) / mean of the hour-of-day profile. A flat market
// scores near 0.
func (s *Series) seasonalityIndex() float64 {
	profile := s.hourOfDayProfile()
	min, max, sum := profile[0], profile[0], 0.0
	for _, v := range profile {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sum += v
	}
	mean := sum / 24
	if mean == 0 {
		return 0
	}
	return (max - min) / mean
}

// hourOfDayProfile returns the mean price per hour of day (24 entries):
// the seasonality view of a price history. Real spot markets show a
// demand-driven daily cycle (the paper sampled its queuing-delay
// measurements at 7 am and 7 pm for the same reason); the generator can
// reproduce it via ZoneConfig.DiurnalAmplitude and this profile
// verifies either its presence or its absence.
func (s *Series) hourOfDayProfile() [24]float64 {
	var sums, counts [24]float64
	for i, p := range s.Prices {
		hod := (s.Epoch + int64(i)*s.Step) % (24 * 3600) / 3600
		if hod < 0 {
			hod += 24
		}
		sums[hod] += p
		counts[hod]++
	}
	var out [24]float64
	for h := range out {
		if counts[h] > 0 {
			out[h] = sums[h] / counts[h]
		}
	}
	return out
}
