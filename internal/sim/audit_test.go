package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

func TestAuditAcceptsRealRuns(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 17))
	for trial := 0; trial < 40; trial++ {
		set := randomSet(rng, 2, 12*30)
		cfg := Config{
			Trace: set, Work: 4 * trace.Hour, Deadline: 8 * trace.Hour,
			CheckpointCost: 300, RestartCost: 300,
			Delay: market.FixedDelay(300), Seed: uint64(trial),
			RecordTimeline: true,
		}
		res, err := Run(cfg, static{RunSpec{Bid: 0.27 + rng.Float64()*2, Zones: []int{0, 1}, Policy: &hourly{interval: trace.Hour}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := auditResult(cfg, res); err != nil {
			t.Fatalf("trial %d: audit rejected a real run: %v", trial, err)
		}
	}
}

func TestAuditNeedsTimeline(t *testing.T) {
	cfg := baseConfig(constSet(0.3, 12*10))
	res, err := Run(cfg, static{RunSpec{Bid: 0.5, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := auditResult(cfg, res); err == nil {
		t.Fatal("audit accepted a run without a timeline")
	}
}

func TestAuditCatchesTamperedLedger(t *testing.T) {
	cfg := baseConfig(constSet(0.3, 12*10))
	cfg.Deadline = 12 * trace.Hour
	cfg.RecordTimeline = true
	res, err := Run(cfg, static{RunSpec{Bid: 0.5, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := auditResult(cfg, res); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}

	// Tamper with a rate: hour-start pricing violated.
	tampered := *res
	tampered.Ledger.Entries = append([]market.Entry(nil), res.Ledger.Entries...)
	tampered.Ledger.Entries[0].Rate = 0.99
	if err := auditResult(cfg, &tampered); err == nil || !strings.Contains(err.Error(), "trace says") {
		t.Fatalf("tampered rate not caught: %v", err)
	}

	// Move a charge outside any up period.
	tampered2 := *res
	tampered2.Ledger.Entries = append([]market.Entry(nil), res.Ledger.Entries...)
	tampered2.Ledger.Entries[0].HourStart = res.FinishTime + 10*trace.Hour
	if err := auditResult(cfg, &tampered2); err == nil {
		t.Fatal("out-of-period charge not caught")
	}

	// Invent an unknown zone.
	tampered3 := *res
	tampered3.Ledger.Entries = append([]market.Entry(nil), res.Ledger.Entries...)
	tampered3.Ledger.Entries[0].Zone = "mars-north-1"
	if err := auditResult(cfg, &tampered3); err == nil || !strings.Contains(err.Error(), "unknown zone") {
		t.Fatalf("unknown zone not caught: %v", err)
	}

	// Corrupt the total.
	tampered4 := *res
	tampered4.SpotCost += 1
	if err := auditResult(cfg, &tampered4); err == nil {
		t.Fatal("corrupted total not caught")
	}
}

func TestAuditGuardRun(t *testing.T) {
	// A run that migrates to on-demand: the audit accepts the on-demand
	// hours because the migration is in the timeline.
	cfg := baseConfig(constSet(5.0, 12*10)) // never grantable
	cfg.RecordTimeline = true
	res, err := Run(cfg, static{RunSpec{Bid: 0.5, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SwitchedOnDemand {
		t.Fatal("expected a guard migration")
	}
	if err := auditResult(cfg, res); err != nil {
		t.Fatalf("audit rejected a guard run: %v", err)
	}
}

// auditResult independently re-verifies a run's ledger against the
// price trace and the recorded timeline — a second implementation of
// the billing rules used to cross-check the engine:
//
//   - every spot hour's rate equals the trace price of its zone at the
//     hour start (hour-boundary pricing);
//   - every charged spot hour falls inside one of the zone's recorded
//     up periods, and hours cut short by a provider kill are absent;
//   - hours cut short by the user are present (charged in full);
//   - on-demand hours are billed at the fixed rate and only after the
//     recorded on-demand migration;
//   - totals equal the result's cost decomposition.
//
// It requires a run recorded with Config.RecordTimeline.
func auditResult(cfg Config, res *Result) error {
	if len(res.Timeline) == 0 {
		return fmt.Errorf("sim: audit needs a recorded timeline")
	}
	// Reconstruct per-zone up periods [upAt, downAt) from the timeline.
	type period struct {
		from, to int64
		byUser   bool // closed by user (or still open at completion)
	}
	periods := map[string][]period{}
	open := map[string]int64{}
	zoneName := func(zi int) string { return cfg.Trace.Series[zi].Zone }
	var odStart int64 = math.MaxInt64
	for _, ev := range res.Timeline {
		switch ev.Kind {
		case TLZoneUp:
			// The instance became usable at or before this event (its
			// billing started at ReadyAt ≤ ev.Time); use the meter's
			// view below for rates, the timeline for ordering only.
			open[zoneName(ev.Zone)] = ev.Time
		case TLZoneDown:
			name := zoneName(ev.Zone)
			if from, ok := open[name]; ok {
				periods[name] = append(periods[name], period{
					from: from, to: ev.Time,
					byUser: ev.Detail != "provider-kill",
				})
				delete(open, name)
			}
		case TLOnDemand:
			if ev.Time < odStart {
				odStart = ev.Time
			}
		}
	}
	for name, from := range open {
		// Still up at completion: closed by the user at finish.
		periods[name] = append(periods[name], period{from: from, to: res.FinishTime, byUser: true})
	}

	var spot, od float64
	for _, e := range res.Ledger.Entries {
		if e.OnDemand {
			od += e.Rate
			if e.Rate != 2.40 {
				return fmt.Errorf("sim: audit: on-demand hour at $%g", e.Rate)
			}
			if odStart == math.MaxInt64 {
				return fmt.Errorf("sim: audit: on-demand charge without a recorded migration")
			}
			continue
		}
		spot += e.Rate
		// Hour-boundary pricing against the raw trace.
		var series *int
		for zi := range cfg.Trace.Series {
			if cfg.Trace.Series[zi].Zone == e.Zone {
				z := zi
				series = &z
				break
			}
		}
		if series == nil {
			return fmt.Errorf("sim: audit: charge for unknown zone %q", e.Zone)
		}
		want := cfg.Trace.Series[*series].PriceAt(e.HourStart)
		if e.HourStart < cfg.Trace.Start() && cfg.History != nil {
			want = cfg.History.Series[*series].PriceAt(e.HourStart)
		}
		if math.Abs(e.Rate-want) > 1e-9 {
			return fmt.Errorf("sim: audit: zone %s hour at %d billed $%g, trace says $%g",
				e.Zone, e.HourStart, e.Rate, want)
		}
		// The hour must start inside a recorded up period, and if it
		// does not complete within the period, the period must have
		// ended by the user (provider-killed partial hours are free).
		var within *period
		for i := range periods[e.Zone] {
			p := &periods[e.Zone][i]
			// Billing can begin slightly before the up event lands on
			// the grid (the instance became usable between steps).
			if e.HourStart >= p.from-cfg.Trace.Step() && e.HourStart < p.to {
				within = p
				break
			}
		}
		if within == nil {
			return fmt.Errorf("sim: audit: zone %s charged for hour at %d outside any up period", e.Zone, e.HourStart)
		}
		if e.HourStart+3600 > within.to && !within.byUser {
			return fmt.Errorf("sim: audit: zone %s charged for a provider-killed partial hour at %d", e.Zone, e.HourStart)
		}
	}

	nodes := cfg.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	if math.Abs(spot*float64(nodes)-res.SpotCost) > 1e-6 {
		return fmt.Errorf("sim: audit: spot total %g != result %g", spot*float64(nodes), res.SpotCost)
	}
	if math.Abs(od*float64(nodes)-res.OnDemandCost) > 1e-6 {
		return fmt.Errorf("sim: audit: on-demand total %g != result %g", od*float64(nodes), res.OnDemandCost)
	}
	if math.Abs(res.Cost-(res.SpotCost+res.OnDemandCost)) > 1e-6 {
		return fmt.Errorf("sim: audit: cost %g != spot %g + od %g", res.Cost, res.SpotCost, res.OnDemandCost)
	}
	return nil
}
