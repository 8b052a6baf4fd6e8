package sim

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// volatileTwoZoneSet builds a two-zone trace whose prices repeatedly
// cross a $0.80 bid, so runs exercise kills, waits, restarts, billing
// boundaries and the delay model's random stream.
func volatileTwoZoneSet() *trace.Set {
	n := 16 * 12 // 16 hours of 5-minute steps
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = 0.40
		if i%40 >= 30 {
			a[i] = 1.20 // hour-scale out-of-bid excursions
		}
		b[i] = 0.55
		if (i+17)%56 >= 44 {
			b[i] = 2.00
		}
	}
	return trace.MustNewSet(trace.NewSeries("z0", 0, a), trace.NewSeries("z1", 0, b))
}

func goldenConfig() Config {
	return Config{
		Trace:          volatileTwoZoneSet(),
		Work:           4 * trace.Hour,
		Deadline:       14 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		Seed:           99, // default delay model: the RNG stream matters
		RecordTimeline: true,
	}
}

func goldenStrategy() Strategy {
	return static{spec: RunSpec{Bid: 0.80, Zones: []int{0, 1}, Policy: &hourly{interval: trace.Hour}}}
}

// cloneResult deep-copies the fields of a pooled result that alias
// machine buffers, so it stays valid after the machine is reused.
func cloneResult(r *Result) *Result {
	c := *r
	c.Ledger = r.Ledger.Clone()
	c.Timeline = append([]TimelineEvent(nil), r.Timeline...)
	return &c
}

// TestResetReproducesFreshRun is the golden determinism contract of the
// reusable engine: a pooled machine, a reset machine that already ran a
// different configuration, and the plain Run entry point must produce
// bit-identical results for the same seed.
func TestResetReproducesFreshRun(t *testing.T) {
	cfg := goldenConfig()

	fresh, err := Run(cfg, goldenStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Completed {
		t.Fatalf("golden run did not complete: %+v", fresh)
	}
	if fresh.ProviderKills == 0 || fresh.Checkpoints == 0 {
		t.Fatalf("golden run too tame to validate reuse (kills=%d checkpoints=%d)",
			fresh.ProviderKills, fresh.Checkpoints)
	}

	// A pooled machine via the one-shot helper.
	var pooled *Result
	if err := RunPooled(cfg, goldenStrategy(), func(r *Result) { pooled = cloneResult(r) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("pooled run diverged from fresh run:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}

	// A machine that first ran a different config, then was Reset.
	other := cfg
	other.Seed = 7
	other.Work = 2 * trace.Hour
	m, err := AcquireMachine(other, goldenStrategy())
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseMachine(m)
	if _, err := m.runToCompletion(); err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(cfg, goldenStrategy()); err != nil {
		t.Fatal(err)
	}
	reused, err := m.runToCompletion()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, cloneResult(reused)) {
		t.Errorf("reset-after-use run diverged from fresh run:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}

// TestResetReproducesEstimationRun covers the guard-disabled estimation
// path (FinishEstimation) that the Adaptive evaluator exercises.
func TestResetReproducesEstimationRun(t *testing.T) {
	cfg := goldenConfig()
	cfg.Work = 1 << 40
	cfg.Deadline = 1 << 40
	cfg.DisableDeadlineGuard = true

	fresh, err := Run(cfg, goldenStrategy())
	if err != nil {
		t.Fatal(err)
	}
	var pooled *Result
	if err := RunPooled(cfg, goldenStrategy(), func(r *Result) { pooled = cloneResult(r) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, pooled) {
		t.Errorf("pooled estimation run diverged:\nfresh:  %+v\npooled: %+v", fresh, pooled)
	}
	if fresh.MaxProgress == 0 {
		t.Fatal("estimation run made no progress; scenario too tame")
	}
}

// TestConcurrentPooledRuns drives many pooled machines from concurrent
// goroutines (the evaluator's access pattern); under -race this checks
// the pool hand-off, and each result must still match the golden run.
func TestConcurrentPooledRuns(t *testing.T) {
	cfg := goldenConfig()
	fresh, err := Run(cfg, goldenStrategy())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make([]error, workers)
	costs := make([]float64, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- w }()
			for rep := 0; rep < 4; rep++ {
				errs[w] = RunPooled(cfg, goldenStrategy(), func(r *Result) { costs[w] = r.Cost })
				if errs[w] != nil {
					return
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if costs[w] != fresh.Cost {
			t.Errorf("worker %d cost %g != fresh %g", w, costs[w], fresh.Cost)
		}
	}
}

// TestReleasedMachineDropsStrategy pins that the machine pool keeps
// buffers, never a finished run: a released machine holds no strategy,
// spec, policy or configuration.
func TestReleasedMachineDropsStrategy(t *testing.T) {
	m, err := AcquireMachine(goldenConfig(), goldenStrategy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.runToCompletion(); err != nil {
		t.Fatal(err)
	}
	ReleaseMachine(m)
	if m.strat != nil || m.pendingSpec != nil || m.specBuf.Policy != nil || m.result != nil {
		t.Errorf("released machine keeps its run: strategy %v, pending %v, spec policy %v, result %v", m.strat, m.pendingSpec, m.specBuf.Policy, m.result)
	}
	if m.env.Spec.Policy != nil || m.env.Cfg.Trace != nil {
		t.Errorf("released machine's env keeps its run: policy %v, trace %v", m.env.Spec.Policy, m.env.Cfg.Trace)
	}
}
