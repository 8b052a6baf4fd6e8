package tracegen

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestGenerateDeterministic(t *testing.T) {
	a := LowVolatility(7)
	b := LowVolatility(7)
	for zi := range a.Series {
		for i := range a.Series[zi].Prices {
			if a.Series[zi].Prices[i] != b.Series[zi].Prices[i] {
				t.Fatalf("same seed diverged at zone %d sample %d", zi, i)
			}
		}
	}
	c := LowVolatility(8)
	same := true
	for i := range a.Series[0].Prices {
		if a.Series[0].Prices[i] != c.Series[0].Prices[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestLowVolatilityCalibration(t *testing.T) {
	set := LowVolatility(1)
	if set.NumZones() != 3 {
		t.Fatalf("zones = %d", set.NumZones())
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range set.Series {
		sum := s.Summarize()
		if sum.Mean < 0.27 || sum.Mean > 0.40 {
			t.Errorf("zone %s mean = %g, want ≈ 0.30", s.Zone, sum.Mean)
		}
		if sum.Variance >= trace.LowVarianceCutoff {
			t.Errorf("zone %s variance = %g, want < %g", s.Zone, sum.Variance, trace.LowVarianceCutoff)
		}
		if sum.Min < 0.27 {
			t.Errorf("zone %s price fell below the floor: %g", s.Zone, sum.Min)
		}
	}
	if got := set.ClassifyVolatility(); got != trace.LowVolatility {
		t.Fatalf("classification = %v, want low", got)
	}
}

func TestHighVolatilityCalibration(t *testing.T) {
	set := HighVolatility(1)
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	anyHighVar := false
	for _, s := range set.Series {
		sum := s.Summarize()
		if sum.Mean < 0.4 || sum.Mean > 1.6 {
			t.Errorf("zone %s mean = %g, want within the paper's 0.70–1.12 band (loose)", s.Zone, sum.Mean)
		}
		if sum.Variance > trace.HighVarianceCutoff {
			anyHighVar = true
		}
		if sum.Max > 3.5 {
			t.Errorf("zone %s max = %g, spikes should stay ≤ 3.40", s.Zone, sum.Max)
		}
	}
	if !anyHighVar {
		t.Error("no zone exceeded the high-variance cutoff")
	}
	if got := set.ClassifyVolatility(); got != trace.HighVolatility {
		t.Fatalf("classification = %v, want high", got)
	}
	// High volatility windows must contain spikes above on-demand,
	// motivating the paper's bid grid extending to $3.07.
	spikes := 0
	for _, s := range set.Series {
		spikes += s.Summarize().Spikes
	}
	if spikes == 0 {
		t.Error("high-volatility trace contains no spikes above $2.40")
	}
}

func TestInjectSpike(t *testing.T) {
	set := LowVolatility(3)
	start := set.Start() + 100*set.Step()
	if err := InjectSpike(set, 1, start, 2*trace.Hour, MaxObservedSpike); err != nil {
		t.Fatal(err)
	}
	if got := set.Series[1].PriceAt(start + trace.Hour); got != MaxObservedSpike {
		t.Fatalf("price during spike = %g", got)
	}
	if got := set.Series[0].PriceAt(start + trace.Hour); got == MaxObservedSpike {
		t.Fatal("spike leaked into another zone")
	}
	if err := InjectSpike(set, 9, start, 300, 5); err == nil {
		t.Fatal("InjectSpike accepted a bad zone index")
	}
	if err := InjectSpike(set, 0, set.End(), 300, 5); err == nil {
		t.Fatal("InjectSpike accepted an out-of-range window")
	}
}

// TestInjectSpikeAfterStates checks that InjectSpike refuses a zone
// whose chain states were read, naming it, since its column would keep
// the old prices' states, whether the series read them or a slice of
// it did; and that on a fresh set the states read after the spike show
// it.
func TestInjectSpikeAfterStates(t *testing.T) {
	set := LowVolatility(3)
	start := set.Start() + 100*set.Step()
	set.Series[1].States()
	err := InjectSpike(set, 1, start, trace.Hour, MaxObservedSpike)
	if err == nil || !strings.Contains(err.Error(), set.Series[1].Zone) {
		t.Fatalf("spike after States: err %v, want a refusal naming zone %s", err, set.Series[1].Zone)
	}
	set.Series[2].Slice(start, start+trace.Hour).States()
	if err := InjectSpike(set, 2, start, trace.Hour, MaxObservedSpike); err == nil {
		t.Fatal("spike after a slice's States was accepted")
	}
	if err := InjectSpike(set, 0, start, trace.Hour, MaxObservedSpike); err != nil {
		t.Fatalf("zone 0, never read: %v", err)
	}

	fresh := LowVolatility(3)
	if err := InjectSpike(fresh, 1, start, trace.Hour, MaxObservedSpike); err != nil {
		t.Fatal(err)
	}
	s := fresh.Series[1]
	ids, vals := s.States()
	if got, want := vals[ids[s.Index(start)]], trace.Bucket(MaxObservedSpike); got != want {
		t.Fatalf("state during the spike %g, want %g", got, want)
	}
}

func TestLowVolatilityWithMegaSpike(t *testing.T) {
	set := LowVolatilityWithMegaSpike(4)
	if _, got := priceRange(set); got != MaxObservedSpike {
		t.Fatalf("max price = %g, want %g", got, MaxObservedSpike)
	}
}

func TestConcat(t *testing.T) {
	a := LowVolatility(1)
	b := HighVolatility(2)
	joined, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if joined.Duration() != a.Duration()+b.Duration() {
		t.Fatalf("joined duration = %d", joined.Duration())
	}
	if err := joined.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Concat(); err == nil {
		t.Fatal("Concat accepted an empty argument list")
	}
}

func TestYear(t *testing.T) {
	set := Year(11)
	if got := set.Duration(); got != int64(12*SamplesPerMonth)*trace.DefaultStep {
		t.Fatalf("year duration = %d", got)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	lo, hi := priceRange(set)
	if hi != MaxObservedSpike {
		t.Fatalf("year max price = %g, want the injected %g", hi, MaxObservedSpike)
	}
	if lo < 0.27 {
		t.Fatalf("year min price = %g, below the CC2 floor", lo)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Zones: []ZoneConfig{{Name: "z", Base: 0.3, Floor: 0.27}}, Samples: 0},
		{Zones: []ZoneConfig{{Name: "z", Base: 0.1, Floor: 0.27}}, Samples: 10},
		{Zones: []ZoneConfig{{Name: "z", Base: 0.3, Floor: 0.27, MoveProb: 1.5}}, Samples: 10},
		{Zones: []ZoneConfig{{Name: "z", Base: 0.3, Floor: 0.27, SpikeMinLen: 5, SpikeMaxLen: 2}}, Samples: 10},
		{Zones: []ZoneConfig{{Name: "z", Base: 0.3, Floor: 0.27}}, Samples: 10, SharedShockWeight: 1.0},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: Generate accepted an invalid config", i)
		}
	}
}

func TestDiurnalCycle(t *testing.T) {
	cfg := Config{
		Zones: []ZoneConfig{{
			Name: "z", Base: 0.50, Floor: 0.27,
			MoveProb: 0.8, MoveSigma: 0.02, Revert: 0.5,
			DiurnalAmplitude: 0.4,
		}},
		Samples: 10 * SamplesPerDay,
		Seed:    5,
	}
	set := MustGenerate(cfg)
	s := set.Series[0]
	// Mean price in the afternoon window (13:00-17:00) must exceed the
	// night window (01:00-05:00).
	window := func(fromHour, toHour int64) float64 {
		var sum float64
		var n int
		for i, p := range s.Prices {
			hod := (s.Epoch + int64(i)*s.Step) % (24 * 3600) / 3600
			if hod >= fromHour && hod < toHour {
				sum += p
				n++
			}
		}
		return sum / float64(n)
	}
	day := window(13, 17)
	night := window(1, 5)
	if day <= night*1.2 {
		t.Fatalf("no diurnal pattern: day %.3f vs night %.3f", day, night)
	}
	// Amplitude outside [0,1) is rejected.
	bad := cfg
	bad.Zones = append([]ZoneConfig(nil), cfg.Zones...)
	bad.Zones[0].DiurnalAmplitude = 1.0
	if _, err := Generate(bad); err == nil {
		t.Fatal("accepted amplitude 1.0")
	}
}

func TestPricesAreCentQuantised(t *testing.T) {
	set := HighVolatility(5)
	for _, s := range set.Series {
		for i, p := range s.Prices {
			cents := p * 100
			if math.Abs(cents-math.Round(cents)) > 1e-9 {
				t.Fatalf("zone %s sample %d price %g is not cent-quantised", s.Zone, i, p)
			}
		}
	}
}

// priceRange returns the lowest and highest price over every zone of
// set.
func priceRange(set *trace.Set) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, s := range set.Series {
		lo, hi = min(lo, slices.Min(s.Prices)), max(hi, slices.Max(s.Prices))
	}
	return lo, hi
}
