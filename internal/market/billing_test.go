package market

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func flatRate(rate float64) func(int64) float64 {
	return func(int64) float64 { return rate }
}

func TestMeterFullHours(t *testing.T) {
	var l Ledger
	m := OpenSpotMeter("z", 0, 0.30)
	m.Advance(2*trace.Hour+100, flatRate(0.50), &l)
	// Two completed hours: first at the opening rate, second at the
	// boundary rate.
	if len(l.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(l.Entries))
	}
	if l.Entries[0].Rate != 0.30 || l.Entries[1].Rate != 0.50 {
		t.Fatalf("rates = %v, %v", l.Entries[0].Rate, l.Entries[1].Rate)
	}
	if l.Total() != 0.80 {
		t.Fatalf("total = %g", l.Total())
	}
}

func TestHourStartPricingIgnoresIntraHourMoves(t *testing.T) {
	// Price jumps mid-hour; the charge must still be the hour-start
	// price (the paper's hour-boundary pricing rule).
	rateAt := func(at int64) float64 {
		if at < trace.Hour {
			return 0.30
		}
		return 1.00
	}
	var l Ledger
	m := OpenSpotMeter("z", 0, 0.30)
	m.Advance(trace.Hour, rateAt, &l)
	if len(l.Entries) != 1 || l.Entries[0].Rate != 0.30 {
		t.Fatalf("ledger = %+v", l.Entries)
	}
}

func TestProviderTerminationPartialHourFree(t *testing.T) {
	var l Ledger
	m := OpenSpotMeter("z", 0, 0.30)
	m.Close(trace.Hour+1800, ByProvider, flatRate(0.30), &l)
	// One completed hour charged; the half hour in progress is free.
	if len(l.Entries) != 1 {
		t.Fatalf("entries = %+v", l.Entries)
	}
	if l.Total() != 0.30 {
		t.Fatalf("total = %g, want 0.30", l.Total())
	}
}

func TestUserTerminationChargesPartialHour(t *testing.T) {
	var l Ledger
	m := OpenSpotMeter("z", 0, 0.30)
	m.Close(1800, ByUser, flatRate(0.30), &l)
	if len(l.Entries) != 1 || !l.Entries[0].Partial {
		t.Fatalf("ledger = %+v", l.Entries)
	}
	if l.Total() != 0.30 {
		t.Fatalf("total = %g", l.Total())
	}
}

func TestCloseExactlyOnBoundaryChargesNothingExtra(t *testing.T) {
	var l Ledger
	m := OpenSpotMeter("z", 0, 0.30)
	m.Close(trace.Hour, ByUser, flatRate(0.40), &l)
	// One full hour, and the next hour never started.
	if len(l.Entries) != 1 || l.Total() != 0.30 {
		t.Fatalf("ledger = %+v total %g", l.Entries, l.Total())
	}
}

func TestOnDemandMeter(t *testing.T) {
	var l Ledger
	m := OpenOnDemandMeter(0)
	if !m.onDemand || m.zone != "on-demand" {
		t.Fatal("on-demand meter misconfigured")
	}
	m.Close(2*trace.Hour+10, ByUser, nil, &l)
	// Three started hours at $2.40.
	if got := l.Total(); math.Abs(got-3*OnDemandRate) > 1e-9 {
		t.Fatalf("on-demand total = %g, want %g", got, 3*OnDemandRate)
	}
	if l.OnDemandTotal() != l.Total() || l.SpotTotal() != 0 {
		t.Fatal("ledger split wrong")
	}
}

func TestMeterPanicsOnMisuse(t *testing.T) {
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	var l Ledger
	m := OpenSpotMeter("z", 1000, 0.3)
	assertPanics("backwards time", func() { m.Advance(0, flatRate(0.3), &l) })
	m.Close(1000, ByUser, flatRate(0.3), &l)
	assertPanics("advance after close", func() { m.Advance(2000, flatRate(0.3), &l) })
	assertPanics("double close", func() { m.Close(2000, ByUser, flatRate(0.3), &l) })
}

func TestLedgerSplit(t *testing.T) {
	var l Ledger
	l.Add(Entry{Zone: "a", Rate: 0.5})
	l.Add(Entry{Zone: "on-demand", Rate: 2.4, OnDemand: true})
	if l.SpotTotal() != 0.5 || l.OnDemandTotal() != 2.4 || l.Total() != 2.9 {
		t.Fatalf("split = %g/%g/%g", l.SpotTotal(), l.OnDemandTotal(), l.Total())
	}
}

// Billing invariants, property-checked: total is the sum of entries;
// a provider kill never costs more than a user kill at the same moment;
// and cost is monotone in run length.
func TestBillingProperties(t *testing.T) {
	f := func(hours uint8, extraRaw uint16, rateRaw uint8) bool {
		runFull := int64(hours%10) * trace.Hour
		extra := int64(extraRaw) % trace.Hour
		rate := 0.27 + float64(rateRaw)/100
		end := runFull + extra

		run := func(cause TerminationCause, until int64) float64 {
			var l Ledger
			m := OpenSpotMeter("z", 0, rate)
			m.Close(until, cause, flatRate(rate), &l)
			var sum float64
			for _, e := range l.Entries {
				sum += e.Rate
			}
			if sum != l.Total() {
				t.Fatalf("ledger total %g != entry sum %g", l.Total(), sum)
			}
			return l.Total()
		}
		prov := run(ByProvider, end)
		user := run(ByUser, end)
		if prov > user {
			return false
		}
		// Monotonicity: running longer never costs less.
		if end >= trace.Hour && run(ByUser, end-trace.Hour) > user {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTerminationCauseString(t *testing.T) {
	if ByProvider.String() != "provider" || ByUser.String() != "user" || TerminationCause(9).String() != "unknown" {
		t.Fatal("TerminationCause.String mismatch")
	}
}

func TestFixedDelay(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if got := FixedDelay(0).Sample(rng); got != 0 {
		t.Fatalf("FixedDelay(0) = %d", got)
	}
	if got := FixedDelay(300).Sample(rng); got != 300 {
		t.Fatalf("FixedDelay(300) = %d", got)
	}
}

func TestMeasuredDelayCalibration(t *testing.T) {
	d := DefaultDelay()
	rng := rand.New(rand.NewPCG(42, 0))
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s < d.Min || s > d.Max {
			t.Fatalf("sample %d outside [%d, %d]", s, d.Min, d.Max)
		}
		sum += float64(s)
	}
	mean := sum / float64(n)
	// The paper measured a 299.6 s average.
	if mean < 250 || mean > 350 {
		t.Fatalf("mean delay = %g, want ≈ 300", mean)
	}
}
