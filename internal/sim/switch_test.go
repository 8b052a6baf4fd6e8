package sim

import (
	"math"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// switcher changes the configuration at the first hour boundary.
type switcher struct {
	initial RunSpec
	next    RunSpec
	fired   bool
}

func (s *switcher) Name() string { return "switcher" }
func (s *switcher) Begin(*Env) RunSpec {
	return s.initial
}
func (s *switcher) Reconsider(env *Env, events []Event) (RunSpec, bool) {
	if s.fired {
		return RunSpec{}, false
	}
	for _, ev := range events {
		if ev.Kind == HourBoundary {
			s.fired = true
			return s.next, true
		}
	}
	return RunSpec{}, false
}

func multiZoneSet(price float64, n int) *trace.Set {
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = price
	}
	return trace.MustNewSet(
		trace.NewSeries("a", 0, prices),
		trace.NewSeries("b", 0, append([]float64(nil), prices...)),
		trace.NewSeries("c", 0, append([]float64(nil), prices...)),
	)
}

func TestSpecSwitchZoneChange(t *testing.T) {
	set := multiZoneSet(0.30, 12*12)
	cfg := baseConfig(set)
	cfg.Deadline = 11 * trace.Hour
	pol := neverCheckpoint{}
	strat := &switcher{
		initial: RunSpec{Bid: 0.81, Zones: []int{0}, Policy: pol},
		next:    RunSpec{Bid: 0.81, Zones: []int{1}, Policy: pol},
	}
	cfg.RecordTimeline = true
	res, err := Run(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpecSwitches != 1 {
		t.Fatalf("switches = %d", res.SpecSwitches)
	}
	// The switch needs a protective checkpoint (uncommitted progress on
	// zone 0), then zone 0 is user-terminated and zone 1 starts from
	// the checkpoint.
	if res.Checkpoints == 0 {
		t.Fatal("no protective checkpoint before the switch")
	}
	if res.UserReleases != 1 {
		t.Fatalf("user releases = %d, want 1 (zone change)", res.UserReleases)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 (zone 1 restores the checkpoint)", res.Restarts)
	}
	if !res.DeadlineMet {
		t.Fatal("deadline missed after switch")
	}
	// Cost: zone 0's partial second hour is charged (user-terminated);
	// the run is longer than 4 h by the overheads but still cheap.
	if res.Cost > 3 {
		t.Fatalf("cost = %g", res.Cost)
	}
	sawSwitch := false
	for _, ev := range res.Timeline {
		if ev.Kind == TLSwitchSpec {
			sawSwitch = true
		}
	}
	if !sawSwitch {
		t.Fatal("switch not recorded in timeline")
	}
}

func TestSpecSwitchBidChangeRestartsInstance(t *testing.T) {
	set := multiZoneSet(0.30, 12*12)
	cfg := baseConfig(set)
	cfg.Deadline = 11 * trace.Hour
	pol := neverCheckpoint{}
	strat := &switcher{
		initial: RunSpec{Bid: 0.81, Zones: []int{0}, Policy: pol},
		next:    RunSpec{Bid: 1.27, Zones: []int{0}, Policy: pol},
	}
	res, err := Run(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	// EC2 cannot change a bid in place: the instance is terminated and
	// re-requested at the new bid.
	if res.UserReleases != 1 || res.SpecSwitches != 1 {
		t.Fatalf("releases=%d switches=%d", res.UserReleases, res.SpecSwitches)
	}
	if !res.Completed || !res.DeadlineMet {
		t.Fatalf("run failed: %+v", res)
	}
}

func TestSpecSwitchSamePolicyNoOp(t *testing.T) {
	set := multiZoneSet(0.30, 12*12)
	cfg := baseConfig(set)
	cfg.Deadline = 11 * trace.Hour
	pol := neverCheckpoint{}
	spec := RunSpec{Bid: 0.81, Zones: []int{0}, Policy: pol}
	strat := &switcher{initial: spec, next: spec}
	res, err := Run(cfg, strat)
	if err != nil {
		t.Fatal(err)
	}
	// Equal specs never trigger a switch.
	if res.SpecSwitches != 0 || res.UserReleases != 0 {
		t.Fatalf("no-op switch caused churn: %+v", res)
	}
}

// releasingPolicy releases the instance after an hour of uptime and
// refuses to start while the release flag is set.
type releasingPolicy struct {
	neverCheckpoint
	blockStarts bool
}

func (p *releasingPolicy) ShouldRelease(env *Env, zone int) bool {
	for _, zi := range env.Spec.Zones {
		if z := &env.Zones[zi]; zi == zone && z.State == Up && env.Now-z.UpSince >= trace.Hour {
			return true
		}
	}
	return false
}

func (p *releasingPolicy) MayStart(env *Env, zone int) bool { return !p.blockStarts }

func TestReleaserHook(t *testing.T) {
	set := multiZoneSet(0.30, 12*20)
	cfg := baseConfig(set)
	cfg.Deadline = 16 * trace.Hour
	cfg.Work = 2 * trace.Hour
	pol := &releasingPolicy{}
	res, err := Run(cfg, static{RunSpec{Bid: 0.81, Zones: []int{0}, Policy: pol}})
	if err != nil {
		t.Fatal(err)
	}
	// The instance is released after each hour and restarted; progress
	// is lost each time (never checkpointed), but releases keep paying
	// full hours, so it eventually finishes... it cannot: each cycle
	// loses everything. The deadline guard must save it.
	if res.UserReleases == 0 {
		t.Fatal("releaser never fired")
	}
	if !res.DeadlineMet {
		t.Fatal("deadline missed")
	}
	if !res.SwitchedOnDemand {
		t.Fatal("expected the guard to finish a self-sabotaging policy")
	}
}

func TestAdmissionHook(t *testing.T) {
	set := multiZoneSet(0.30, 12*12)
	cfg := baseConfig(set)
	cfg.Deadline = 11 * trace.Hour
	pol := &releasingPolicy{blockStarts: true}
	res, err := Run(cfg, static{RunSpec{Bid: 0.81, Zones: []int{0}, Policy: pol}})
	if err != nil {
		t.Fatal(err)
	}
	// Admission always refuses: the zone never starts, the guard runs
	// the whole job on-demand.
	if res.Restarts != 0 || res.SpotCost != 0 {
		t.Fatalf("blocked admission still ran: %+v", res)
	}
	if !res.SwitchedOnDemand || !res.DeadlineMet {
		t.Fatalf("guard did not save the run: %+v", res)
	}
}

func TestEnvAccessors(t *testing.T) {
	set := multiZoneSet(0.30, 12*12)
	cfg := baseConfig(set)
	cfg.Deadline = 11 * trace.Hour
	m, err := NewMachine(cfg, static{RunSpec{Bid: 0.81, Zones: []int{0, 1}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	env := m.Env()
	if env.Work() != cfg.Work || env.CheckpointCost() != 300 || env.RestartCost() != 300 {
		t.Fatal("config accessors wrong")
	}
	if env.Deadline() != set.Start()+cfg.Deadline {
		t.Fatalf("deadline = %d", env.Deadline())
	}
	if env.Rand() == nil {
		t.Fatal("nil rng")
	}
	if m.Now() != set.Start() {
		t.Fatalf("machine now = %d", m.Now())
	}
	// Step a few intervals and check time accounting.
	for i := 0; i < 3; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if env.ElapsedTime() != 3*set.Step() {
		t.Fatalf("elapsed = %d", env.ElapsedTime())
	}
	if env.RemainingTime() != cfg.Deadline-3*set.Step() {
		t.Fatalf("remaining = %d", env.RemainingTime())
	}
	if env.RemainingWork() != cfg.Work {
		t.Fatalf("remaining work = %d (nothing committed yet)", env.RemainingWork())
	}
	if got := env.UncommittedProgress(); got <= 0 {
		t.Fatalf("uncommitted = %d after 3 steps up", got)
	}
	if lead := env.Leader(); lead == nil || lead.Progress != env.LeaderProgress() {
		t.Fatal("leader accessors inconsistent")
	}
	if env.CheckpointInProgress() {
		t.Fatal("phantom checkpoint")
	}
	if env.Cost() < 0 {
		t.Fatal("negative cost")
	}
	if math.IsNaN(env.MinObservedPrice(0)) {
		t.Fatal("min observed price NaN")
	}
	if env.RisingEdge(0) {
		t.Fatal("rising edge on a flat trace")
	}
}

func TestIterationGranularCheckpoints(t *testing.T) {
	// With 25-minute iterations, a checkpoint at the first hour can only
	// commit two completed iterations (50 min), not the full 60 min.
	set := multiZoneSet(0.30, 12*12)
	cfg := baseConfig(set)
	cfg.Deadline = 11 * trace.Hour
	cfg.IterationSeconds = 1500
	pol := &hourly{interval: trace.Hour}
	m, err := NewMachine(cfg, static{RunSpec{Bid: 0.81, Zones: []int{0}, Policy: pol}})
	if err != nil {
		t.Fatal(err)
	}
	env := m.Env()
	for !m.Done() && env.Committed == 0 {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if env.Committed%1500 != 0 {
		t.Fatalf("committed %d is not iteration-aligned", env.Committed)
	}
	if env.Committed == 0 || env.Committed > trace.Hour {
		t.Fatalf("committed = %d", env.Committed)
	}
	// Drain to completion: the run still finishes and meets the deadline.
	for !m.Done() {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Result().DeadlineMet {
		t.Fatal("deadline missed with iteration granularity")
	}
}

func TestIterationValidation(t *testing.T) {
	cfg := baseConfig(multiZoneSet(0.3, 12*12))
	cfg.IterationSeconds = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("accepted negative iteration length")
	}
}

func TestTimelineKindStrings(t *testing.T) {
	kinds := []TimelineKind{TLZoneUp, TLZoneDown, TLZoneWaiting, TLZonePending,
		TLCheckpointStart, TLCheckpointDone, TLCheckpointAborted, TLRestart,
		TLSwitchSpec, TLOnDemand, TLComplete}
	for _, k := range kinds {
		if k.String() == "unknown" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	if TimelineKind(99).String() != "unknown" {
		t.Fatal("unknown kind misnamed")
	}
}

func TestMeterAccessors(t *testing.T) {
	m := market.OpenSpotMeter("z", 100, 0.5)
	if m.HourStart() != 100 || m.HourRate() != 0.5 || m.Closed() {
		t.Fatal("meter accessors wrong")
	}
	var l market.Ledger
	m.Close(100, market.ByUser, nil, &l)
	if !m.Closed() {
		t.Fatal("meter not closed")
	}
}
