package livesched

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/spotapi"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// e2eEpoch anchors the served histories in wall-clock time.
var e2eEpoch = time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)

// TestEndToEndSpotAPICompletes boots the real spotapi handler over
// httptest and runs a job to completion through the production input
// path: HTTP server → spotapi.Client → HTTPFeed → RetryFeed →
// Scheduler. The deadline guarantee must hold against the served
// history.
func TestEndToEndSpotAPICompletes(t *testing.T) {
	set := tracegen.HighVolatility(11).Slice(0, 8*trace.Hour)
	srv := httptest.NewServer(spotapi.Handler(set, e2eEpoch))
	defer srv.Close()

	inner := &HTTPFeed{
		Client:       &spotapi.Client{BaseURL: srv.URL, HTTPClient: srv.Client()},
		PollInterval: time.Millisecond,
	}
	if err := inner.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}
	feed := &RetryFeed{Inner: inner, Attempts: 3, Backoff: time.Millisecond}

	cfg := Config{
		Work:           1800,
		Deadline:       4 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		Seed:           7,
	}
	sched, err := New(cfg, core.SingleZone(core.NewPeriodic(), 3.07, 0), feed, ActuatorFunc(
		func(ctx context.Context, a Action) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || !res.DeadlineMet {
		t.Fatalf("run did not complete within deadline: %+v", res)
	}
}

// flakyUpstream proxies to the real spotapi handler for the first
// request (the feed's prime) and answers 503 afterwards, emulating an
// upstream price API that goes down mid-run.
type flakyUpstream struct {
	inner    http.Handler
	requests atomic.Int64
}

func (f *flakyUpstream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.requests.Add(1) > 1 {
		http.Error(w, "upstream down", http.StatusServiceUnavailable)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestEndToEndRetryCancellation drives the scheduler's feed-error
// branch through context cancellation: the upstream dies after the
// prime fetch, the retry decorator backs off, and cancelling the run
// context mid-backoff must surface context.Canceled from Run — not a
// hang and not a silent completion.
func TestEndToEndRetryCancellation(t *testing.T) {
	set := tracegen.HighVolatility(11).Slice(0, trace.Hour)
	upstream := &flakyUpstream{inner: spotapi.Handler(set, e2eEpoch)}
	srv := httptest.NewServer(upstream)
	defer srv.Close()

	inner := &HTTPFeed{
		Client:       &spotapi.Client{BaseURL: srv.URL, HTTPClient: srv.Client()},
		PollInterval: time.Millisecond,
	}
	if err := inner.Prime(context.Background()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	retrying := make(chan struct{}, 16)
	feed := &RetryFeed{
		Inner:    inner,
		Attempts: 10,
		Backoff:  time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			// Announce the backoff so the test can cancel mid-retry.
			select {
			case retrying <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return ctx.Err()
		},
	}

	// More work than the one served hour holds: the scheduler must
	// exhaust the primed window and re-fetch from the dead upstream.
	cfg := Config{
		Work:           20 * trace.Hour,
		Deadline:       40 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		Seed:           7,
	}
	sched, err := New(cfg, core.SingleZone(core.NewPeriodic(), 3.07, 0), feed, ActuatorFunc(
		func(ctx context.Context, a Action) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := sched.Run(ctx)
		done <- err
	}()
	select {
	case <-retrying:
		cancel()
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("scheduler never reached the retry path")
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if upstream.requests.Load() < 2 {
		t.Fatalf("upstream saw %d requests; the failing re-fetch never happened", upstream.requests.Load())
	}
}
