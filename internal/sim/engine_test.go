package sim

import (
	"math"
	"testing"

	"repro/internal/market"
	"repro/internal/trace"
)

// neverCheckpoint is a policy that never checkpoints.
type neverCheckpoint struct{}

func (neverCheckpoint) Name() string                  { return "never" }
func (neverCheckpoint) Reset(*Env)                    {}
func (neverCheckpoint) CheckpointCondition(*Env) bool { return false }
func (neverCheckpoint) ScheduleNextCheckpoint(*Env)   {}

// hourly checkpoints every interval seconds of wall-clock time.
type hourly struct {
	interval int64
	ts       int64
}

func (h *hourly) Name() string { return "hourly" }
func (h *hourly) Reset(env *Env) {
	h.ts = env.Now + h.interval
}
func (h *hourly) CheckpointCondition(env *Env) bool { return env.Now >= h.ts }
func (h *hourly) ScheduleNextCheckpoint(env *Env)   { h.ts = env.Now + h.interval }

// static is a minimal fixed strategy.
type static struct {
	spec RunSpec
}

func (s static) Name() string       { return "static" }
func (s static) Begin(*Env) RunSpec { return s.spec }
func (s static) Reconsider(*Env, []Event) (RunSpec, bool) {
	return RunSpec{}, false
}

// constSet builds a single-zone constant-price trace of n samples.
func constSet(price float64, n int) *trace.Set {
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = price
	}
	return trace.MustNewSet(trace.NewSeries("z0", 0, prices))
}

// stepSet builds a single-zone trace from (price, samples) pairs.
func stepSet(segments ...[2]float64) *trace.Set {
	var prices []float64
	for _, seg := range segments {
		for i := 0; i < int(seg[1]); i++ {
			prices = append(prices, seg[0])
		}
	}
	return trace.MustNewSet(trace.NewSeries("z0", 0, prices))
}

func baseConfig(set *trace.Set) Config {
	return Config{
		Trace:          set,
		Work:           4 * trace.Hour,
		Deadline:       8 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		Delay:          market.FixedDelay(0),
		Seed:           1,
	}
}

// TestRunAllocsIndependentOfCheckpoints pins that a run's allocations
// do not grow with its checkpoint count: a commit formats its timeline
// detail only when the run records a timeline. Two runs on a reset
// machine, one checkpointing every two hours and one every twenty
// minutes, must allocate alike.
func TestRunAllocsIndependentOfCheckpoints(t *testing.T) {
	cfg := baseConfig(constSet(0.30, 12*12))
	allocs := func(interval int64) (float64, int) {
		strat := Strategy(static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: &hourly{interval: interval}}})
		m, err := NewMachine(cfg, strat)
		if err != nil {
			t.Fatal(err)
		}
		var ckpts int
		n := testing.AllocsPerRun(10, func() {
			if err := m.Reset(cfg, strat); err != nil {
				t.Fatal(err)
			}
			res, err := m.runToCompletion()
			if err != nil {
				t.Fatal(err)
			}
			ckpts = res.Checkpoints
		})
		return n, ckpts
	}
	few, fewCk := allocs(2 * trace.Hour)
	many, manyCk := allocs(20 * 60)
	if manyCk < fewCk+5 {
		t.Fatalf("checkpoint counts %d and %d do not differ enough to tell", fewCk, manyCk)
	}
	if many != few {
		t.Errorf("a run of %d checkpoints allocates %v times, one of %d checkpoints %v", manyCk, many, fewCk, few)
	}
}

func TestUninterruptedSpotRun(t *testing.T) {
	cfg := baseConfig(constSet(0.30, 12*10)) // 10 hours of $0.30
	// Keep the deadline far enough away that the engine's pre-guard
	// insurance checkpoint never triggers during the 4 h run.
	cfg.Deadline = 12 * trace.Hour
	res, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.DeadlineMet {
		t.Fatalf("run did not complete: %+v", res)
	}
	// Started at t=0 with zero delay and no restore: finishes at exactly
	// 4 h; exactly 4 billing hours at $0.30.
	if res.FinishTime != 4*trace.Hour {
		t.Fatalf("finish = %d, want %d", res.FinishTime, 4*trace.Hour)
	}
	if math.Abs(res.Cost-4*0.30) > 1e-9 {
		t.Fatalf("cost = %g, want %g", res.Cost, 4*0.30)
	}
	if res.SwitchedOnDemand || res.ProviderKills != 0 || res.Restarts != 0 {
		t.Fatalf("unexpected events: %+v", res)
	}
}

func TestPureOnDemandBaseline(t *testing.T) {
	cfg := baseConfig(constSet(0.30, 12*10))
	cfg.Work = 4*trace.Hour + 100 // partial final hour
	res, err := Run(cfg, static{RunSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	// ceil(4h+100s) = 5 started hours at $2.40.
	want := 5 * market.OnDemandRate
	if math.Abs(res.Cost-want) > 1e-9 {
		t.Fatalf("on-demand cost = %g, want %g", res.Cost, want)
	}
	if !res.Completed || !res.DeadlineMet || !res.SwitchedOnDemand {
		t.Fatalf("baseline result: %+v", res)
	}
	if res.OnDemandCost != res.Cost || res.SpotCost != 0 {
		t.Fatalf("cost split: %+v", res)
	}
}

func TestDeadlineGuardFiresWhenNeverUp(t *testing.T) {
	// Price always above the bid: the job can only finish on-demand.
	cfg := baseConfig(constSet(1.00, 12*10))
	res, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.SwitchedOnDemand {
		t.Fatal("guard did not fire")
	}
	if !res.Completed || !res.DeadlineMet {
		t.Fatalf("deadline missed: %+v", res)
	}
	// No checkpoint, no restart: pure work on-demand → 4 hours.
	if math.Abs(res.Cost-4*market.OnDemandRate) > 1e-9 {
		t.Fatalf("cost = %g, want %g", res.Cost, 4*market.OnDemandRate)
	}
	// The guard fires as late as possible: finish must be within the
	// deadline but after deadline - work - 2 steps.
	if res.FinishTime > cfg.Deadline || res.FinishTime < cfg.Deadline-2*cfg.Trace.Step() {
		t.Fatalf("finish = %d, deadline %d", res.FinishTime, cfg.Deadline)
	}
}

func TestProviderKillLosesProgressAndIsFree(t *testing.T) {
	// Up for 1h30m, killed, down 1h, up again. No checkpoints: all
	// progress lost at the kill.
	set := stepSet([2]float64{0.30, 18}, [2]float64{1.0, 12}, [2]float64{0.30, 12 * 10})
	cfg := baseConfig(set)
	cfg.Deadline = 12 * trace.Hour
	res, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProviderKills != 1 {
		t.Fatalf("kills = %d", res.ProviderKills)
	}
	if !res.Completed || !res.DeadlineMet {
		t.Fatalf("did not complete: %+v", res)
	}
	// First up period: [0, 5400): one full hour charged at 0.30; the
	// partial second hour is free (provider kill). Second up period
	// starts at 2.5 h and runs 4 h of work to 6.5 h → 4 full hours.
	// Total: 5 × 0.30.
	if math.Abs(res.Cost-5*0.30) > 1e-9 {
		t.Fatalf("cost = %g, want %g (ledger %+v)", res.Cost, 5*0.30, res.Ledger.Entries)
	}
	if res.FinishTime != int64(6.5*float64(trace.Hour)) {
		t.Fatalf("finish = %d, want %d", res.FinishTime, int64(6.5*float64(trace.Hour)))
	}
}

func TestCheckpointPreservesProgress(t *testing.T) {
	// Same price pattern, but hourly checkpoints: the kill at 1.5 h
	// only loses the progress since the checkpoint at 1 h.
	set := stepSet([2]float64{0.30, 18}, [2]float64{1.0, 12}, [2]float64{0.30, 12 * 10})
	cfg := baseConfig(set)
	cfg.Deadline = 9 * trace.Hour
	pol := &hourly{interval: trace.Hour}
	res, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: pol}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints == 0 || res.Restarts != 1 {
		t.Fatalf("checkpoints=%d restarts=%d", res.Checkpoints, res.Restarts)
	}
	// The checkpoint at 1 h commits ~1 h of progress (minus nothing: the
	// checkpoint takes 300 s during which no progress happens). After
	// the kill at 1.5 h, the zone restarts at 2.5 h from ≈ 1 h progress
	// plus restart cost. It must finish earlier than the no-checkpoint
	// run minus ~45 minutes.
	noCkpt := int64(6.5 * float64(trace.Hour))
	if res.FinishTime >= noCkpt {
		t.Fatalf("finish = %d, not earlier than %d", res.FinishTime, noCkpt)
	}
	if !res.DeadlineMet {
		t.Fatal("deadline missed")
	}
}

func TestTimeAttribution(t *testing.T) {
	// Up 1.5 h, killed (no checkpoints): 1.5 h of rework. After the
	// restart there is no checkpoint to restore, so overhead stays 0.
	set := stepSet([2]float64{0.30, 18}, [2]float64{1.0, 12}, [2]float64{0.30, 12 * 10})
	cfg := baseConfig(set)
	cfg.Deadline = 12 * trace.Hour
	res, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReworkSeconds != int64(1.5*float64(trace.Hour)) {
		t.Fatalf("rework = %d, want %d", res.ReworkSeconds, int64(1.5*float64(trace.Hour)))
	}
	if res.OverheadSeconds != 0 {
		t.Fatalf("overhead = %d, want 0", res.OverheadSeconds)
	}

	// Same market with hourly checkpoints: the kill only loses the
	// last partial hour, and overhead counts checkpoints + the restore.
	pol := &hourly{interval: trace.Hour}
	res2, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: pol}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ReworkSeconds >= res.ReworkSeconds {
		t.Fatalf("checkpointing rework %d not below no-checkpoint %d", res2.ReworkSeconds, res.ReworkSeconds)
	}
	wantOverhead := int64(res2.Checkpoints)*cfg.CheckpointCost + int64(res2.Restarts)*cfg.RestartCost
	if res2.OverheadSeconds != wantOverhead {
		t.Fatalf("overhead = %d, want %d", res2.OverheadSeconds, wantOverhead)
	}
}

func TestQueueDelayDelaysStart(t *testing.T) {
	cfg := baseConfig(constSet(0.30, 12*10))
	cfg.Deadline = 12 * trace.Hour
	cfg.Delay = market.FixedDelay(600)
	res, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	// Start delayed by 600 s: finish at 600 + 4 h (no restore cost on a
	// fresh start).
	if res.FinishTime != 600+4*trace.Hour {
		t.Fatalf("finish = %d, want %d", res.FinishTime, 600+4*trace.Hour)
	}
}

func TestRedundantZonesCostMore(t *testing.T) {
	prices := make([]float64, 12*10)
	for i := range prices {
		prices[i] = 0.30
	}
	set := trace.MustNewSet(
		trace.NewSeries("a", 0, prices),
		trace.NewSeries("b", 0, prices),
		trace.NewSeries("c", 0, prices),
	)
	cfg := baseConfig(set)
	cfg.Deadline = 12 * trace.Hour
	single, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0, 1, 2}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(all.Cost-3*single.Cost) > 1e-9 {
		t.Fatalf("redundant cost = %g, want %g", all.Cost, 3*single.Cost)
	}
}

func TestNodesMultiplier(t *testing.T) {
	cfg := baseConfig(constSet(0.30, 12*10))
	cfg.Deadline = 12 * trace.Hour
	cfg.Nodes = 8
	res, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-8*4*0.30) > 1e-9 {
		t.Fatalf("cost = %g, want %g", res.Cost, 8*4*0.30)
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig(constSet(0.3, 120))
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Work = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted zero work")
	}
	bad = good
	bad.Deadline = good.Work // no room for migration overhead
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted unguaranteeable deadline")
	}
	bad = good
	bad.Trace = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted nil trace")
	}
	bad = good
	bad.CheckpointCost = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted negative checkpoint cost")
	}
	bad = good
	bad.Nodes = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("accepted negative nodes")
	}
}

func TestSpecValidation(t *testing.T) {
	cfg := baseConfig(constSet(0.3, 12*10))
	cases := []RunSpec{
		{Bid: 0.5, Zones: []int{5}, Policy: neverCheckpoint{}},    // out of range
		{Bid: 0.5, Zones: []int{0, 0}, Policy: neverCheckpoint{}}, // repeated
		{Bid: 0.5, Zones: []int{0}, Policy: nil},                  // no policy
		{Bid: 0, Zones: []int{0}, Policy: neverCheckpoint{}},      // no bid
	}
	for i, spec := range cases {
		if _, err := Run(cfg, static{spec}); err == nil {
			t.Errorf("case %d: Run accepted invalid spec", i)
		}
	}
}

func TestTraceTooShortForDeadline(t *testing.T) {
	cfg := baseConfig(constSet(1.0, 12)) // 1 hour of trace
	cfg.Work = 4 * trace.Hour
	cfg.Deadline = 8 * trace.Hour
	if _, err := Run(cfg, static{RunSpec{Bid: 0.5, Zones: []int{0}, Policy: neverCheckpoint{}}}); err == nil {
		t.Fatal("expected an error when the trace cannot cover the deadline")
	}
}

func TestTimelineRecording(t *testing.T) {
	cfg := baseConfig(constSet(0.30, 12*10))
	cfg.RecordTimeline = true
	res, err := Run(cfg, static{RunSpec{Bid: 0.50, Zones: []int{0}, Policy: neverCheckpoint{}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	last := res.Timeline[len(res.Timeline)-1]
	if last.Kind != TLComplete {
		t.Fatalf("last event = %v", last.Kind)
	}
}

func TestInstanceStateString(t *testing.T) {
	states := map[InstanceState]string{Down: "down", Waiting: "waiting", Pending: "pending", Up: "up", InstanceState(9): "unknown"}
	for s, want := range states {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if ProviderKill.String() != "provider-kill" || HourBoundary.String() != "hour-boundary" || EventKind(7).String() != "unknown" {
		t.Error("EventKind.String mismatch")
	}
}

func TestRunSpecEqual(t *testing.T) {
	p := neverCheckpoint{}
	a := RunSpec{Bid: 0.5, Zones: []int{0, 1}, Policy: p}
	if !a.Equal(RunSpec{Bid: 0.5, Zones: []int{0, 1}, Policy: p}) {
		t.Fatal("equal specs not equal")
	}
	if a.Equal(RunSpec{Bid: 0.7, Zones: []int{0, 1}, Policy: p}) {
		t.Fatal("different bid equal")
	}
	if a.Equal(RunSpec{Bid: 0.5, Zones: []int{0}, Policy: p}) {
		t.Fatal("different zones equal")
	}
	if a.Equal(RunSpec{Bid: 0.5, Zones: []int{0, 2}, Policy: p}) {
		t.Fatal("different zone set equal")
	}
}
