package livesched

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func liveConfig(history *trace.Set) Config {
	return Config{
		Work:           6 * trace.Hour,
		Deadline:       9 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		History:        history,
		Delay:          market.FixedDelay(300),
		Seed:           7,
	}
}

// liveWindow cuts a run window whose epoch is rebased to 0, as a feed
// would deliver it, plus history ending at 0.
func liveWindow(seed uint64) (history, run *trace.Set) {
	set := tracegen.HighVolatility(seed)
	start := set.Start() + 5*24*trace.Hour
	hist := set.Slice(start-2*24*trace.Hour, start).Clone()
	for _, s := range hist.Series {
		s.Epoch -= start
	}
	runSet := set.Slice(start, start+12*trace.Hour).Clone()
	for _, s := range runSet.Series {
		s.Epoch -= start
	}
	return hist, runSet
}

func TestLiveRunMatchesOfflineRun(t *testing.T) {
	hist, run := liveWindow(3)
	cfg := liveConfig(hist)

	// Offline: the plain engine over the same data.
	offline, err := sim.Run(sim.Config{
		Trace: run, History: hist,
		Work: cfg.Work, Deadline: cfg.Deadline,
		CheckpointCost: cfg.CheckpointCost, RestartCost: cfg.RestartCost,
		Delay: cfg.Delay, Seed: cfg.Seed,
	}, core.SingleZone(core.NewPeriodic(), 0.81, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Live: the scheduler consuming the same prices through a feed.
	rec := &Recorder{}
	s, err := New(cfg, core.SingleZone(core.NewPeriodic(), 0.81, 0), &TraceFeed{Set: run}, rec)
	if err != nil {
		t.Fatal(err)
	}
	live, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if live.Cost != offline.Cost {
		t.Fatalf("live cost %g != offline cost %g", live.Cost, offline.Cost)
	}
	if live.FinishTime != offline.FinishTime-run.Start() && live.FinishTime != offline.FinishTime {
		// Both traces start at 0 after rebasing, so finish times match.
		t.Fatalf("live finish %d != offline finish %d", live.FinishTime, offline.FinishTime)
	}
	if live.Checkpoints != offline.Checkpoints || live.ProviderKills != offline.ProviderKills {
		t.Fatalf("live events diverge: %+v vs %+v", live, offline)
	}
	if !live.DeadlineMet {
		t.Fatal("live run missed deadline")
	}
}

func TestActionsAreCoherent(t *testing.T) {
	hist, run := liveWindow(5)
	rec := &Recorder{}
	s, err := New(liveConfig(hist), core.Redundant(core.NewMarkovDaly(), 0.81, []int{0, 1, 2}), &TraceFeed{Set: run}, rec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Actions) == 0 {
		t.Fatal("no actions dispatched")
	}
	// Every simulated event appears as an action.
	if got := rec.Count(ActCheckpointDone); got != res.Checkpoints {
		t.Fatalf("checkpoint-done actions = %d, result says %d", got, res.Checkpoints)
	}
	if got := rec.Count(ActInstanceLost); got != res.ProviderKills {
		t.Fatalf("instance-lost actions = %d, result says %d", got, res.ProviderKills)
	}
	// Requests precede instance-up for the same zone.
	firstReq := map[string]int64{}
	for _, a := range rec.Actions {
		if a.Kind == ActRequestSpot {
			if _, ok := firstReq[a.Zone]; !ok {
				firstReq[a.Zone] = a.Time
			}
		}
		if a.Kind == ActInstanceUp {
			req, ok := firstReq[a.Zone]
			if !ok || req > a.Time {
				t.Fatalf("zone %s came up at %d without a prior request", a.Zone, a.Time)
			}
		}
	}
	// The run ends with a completion action.
	last := rec.Actions[len(rec.Actions)-1]
	if last.Kind != ActComplete {
		t.Fatalf("last action = %v", last.Kind)
	}
}

func TestFeedEndsEarly(t *testing.T) {
	hist, run := liveWindow(7)
	short := run.Slice(run.Start(), run.Start()+2*trace.Hour)
	s, err := New(liveConfig(hist), core.SingleZone(core.NewPeriodic(), 0.81, 0), &TraceFeed{Set: short}, &Recorder{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); !errors.Is(err, ErrFeedEnded) {
		t.Fatalf("err = %v, want ErrFeedEnded", err)
	}
}

func TestContextCancellation(t *testing.T) {
	hist, run := liveWindow(9)
	// A slow feed so cancellation lands mid-run.
	feed := &TraceFeed{Set: run, Interval: 50 * time.Millisecond}
	s, err := New(liveConfig(hist), core.SingleZone(core.NewPeriodic(), 0.81, 0), feed, &Recorder{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	if _, err := s.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestActuatorErrorStopsRun(t *testing.T) {
	hist, run := liveWindow(11)
	boom := errors.New("boom")
	act := ActuatorFunc(func(context.Context, Action) error { return boom })
	s, err := New(liveConfig(hist), core.SingleZone(core.NewPeriodic(), 0.81, 0), &TraceFeed{Set: run}, act)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestChanFeed(t *testing.T) {
	rows := make(chan []float64, 4)
	feed := &ChanFeed{ZoneNames: []string{"a"}, StepSecs: 300, Rows: rows}
	rows <- []float64{0.3}
	got, err := feed.Next(context.Background())
	if err != nil || got[0] != 0.3 {
		t.Fatalf("Next = %v, %v", got, err)
	}
	rows <- []float64{0.3, 0.4} // wrong arity
	if _, err := feed.Next(context.Background()); err == nil {
		t.Fatal("accepted wrong arity")
	}
	close(rows)
	if _, err := feed.Next(context.Background()); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	blocked := &ChanFeed{ZoneNames: []string{"a"}, StepSecs: 300, Rows: make(chan []float64)}
	if _, err := blocked.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
}

func TestLogActuator(t *testing.T) {
	var sb strings.Builder
	act := LogActuator{W: &sb}
	err := act.Act(context.Background(), Action{Kind: ActRequestSpot, Time: 3600, Zone: "us-east-1a", Bid: 0.81})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "request-spot") || !strings.Contains(sb.String(), "us-east-1a") {
		t.Fatalf("log = %q", sb.String())
	}
}

func TestNewValidation(t *testing.T) {
	hist, run := liveWindow(13)
	feed := &TraceFeed{Set: run}
	if _, err := New(liveConfig(hist), nil, feed, &Recorder{}); err == nil {
		t.Fatal("accepted nil strategy")
	}
	if _, err := New(liveConfig(hist), core.NewOnDemandOnly(), nil, &Recorder{}); err == nil {
		t.Fatal("accepted nil feed")
	}
	if _, err := New(liveConfig(hist), core.NewOnDemandOnly(), feed, nil); err == nil {
		t.Fatal("accepted nil actuator")
	}
	bad := &ChanFeed{ZoneNames: nil, StepSecs: 300, Rows: make(chan []float64)}
	if _, err := New(liveConfig(hist), core.NewOnDemandOnly(), bad, &Recorder{}); err == nil {
		t.Fatal("accepted zero-zone feed")
	}
	noStep := &ChanFeed{ZoneNames: []string{"a"}, StepSecs: 0, Rows: make(chan []float64)}
	if _, err := New(liveConfig(hist), core.NewOnDemandOnly(), noStep, &Recorder{}); err == nil {
		t.Fatal("accepted zero-step feed")
	}
}

func TestActionKindString(t *testing.T) {
	kinds := []ActionKind{ActRequestSpot, ActCancelRequest, ActInstanceUp, ActInstanceLost,
		ActTerminate, ActCheckpointStart, ActCheckpointDone, ActCheckpointAborted,
		ActSwitchConfig, ActStartOnDemand, ActComplete}
	for _, k := range kinds {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if ActionKind(99).String() != "unknown" {
		t.Fatal("unknown kind misnamed")
	}
}

// coreSingleZone builds the default single-zone test strategy.
func coreSingleZone() sim.Strategy {
	return core.SingleZone(core.NewPeriodic(), 0.81, 0)
}

// TestTraceFeedPacesFromFirstRow pins TraceFeed's schedule: a consumer
// that works between Next calls still receives row n at the first
// row's time plus n·Interval — never earlier, and with no lag that grows
// with the rows it has read.
func TestTraceFeedPacesFromFirstRow(t *testing.T) {
	const rows, interval, work = 20, 20 * time.Millisecond, 5 * time.Millisecond
	set := tracegen.HighVolatility(3)
	feed := &TraceFeed{Set: set.Slice(set.Start(), set.Start()+rows*set.Step()), Interval: interval}
	ctx := context.Background()
	t0 := time.Now() // no later than the feed's own first-row time
	var lag time.Duration
	for n := 0; n < rows; n++ {
		if _, err := feed.Next(ctx); err != nil {
			t.Fatal(err)
		}
		due := t0.Add(time.Duration(n) * interval)
		got := time.Now()
		if got.Before(due) {
			t.Fatalf("row %d arrived %v before its due time", n, due.Sub(got))
		}
		lag = got.Sub(due)
		time.Sleep(work) // the consumer's per-row work
	}
	// Sleeping Interval after each call would leave the last row
	// (rows-1)·work = 95 ms late; paced from the first row, the lag is
	// one timer wake-up.
	if lag > (rows-1)*work/2 {
		t.Fatalf("last row %v late: the feed drifts with the consumer's work", lag)
	}
	if _, err := feed.Next(ctx); err != io.EOF {
		t.Fatalf("after %d rows: %v, want io.EOF", rows, err)
	}
}
