package quote

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	b := &Breaker{Threshold: 3, Cooldown: time.Minute, Now: func() time.Time { return now }}

	if allowed, _ := b.Allow(); !allowed {
		t.Fatal("closed breaker rejected a call")
	}
	// Two failures keep it closed; the third opens it.
	if b.Failure() || b.Failure() {
		t.Fatal("breaker opened before the threshold")
	}
	if !b.Failure() {
		t.Fatal("threshold failure did not open the breaker")
	}
	if !b.Degraded() {
		t.Fatal("open breaker not degraded")
	}
	if allowed, _ := b.Allow(); allowed {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}
	// Cooldown elapses: exactly one half-open probe is admitted.
	now = now.Add(2 * time.Minute)
	allowed, probe := b.Allow()
	if !allowed || !probe {
		t.Fatalf("post-cooldown Allow = %v, %v; want probe", allowed, probe)
	}
	if allowed, _ := b.Allow(); allowed {
		t.Fatal("second caller admitted while the probe is in flight")
	}
	// The probe fails: re-open, full cooldown again.
	if !b.Failure() {
		t.Fatal("half-open failure did not re-open")
	}
	if allowed, _ := b.Allow(); allowed {
		t.Fatal("re-opened breaker admitted a call")
	}
	// Next probe succeeds: closed, and a success resets the count.
	now = now.Add(2 * time.Minute)
	if allowed, probe := b.Allow(); !allowed || !probe {
		t.Fatal("second probe not admitted")
	}
	b.Success()
	if b.Degraded() {
		t.Fatal("closed breaker reports degraded")
	}
	if b.Failure() {
		t.Fatal("failure count survived the success")
	}
}

// flakySource delegates to a working source until broken.
type flakySource struct {
	inner  HistorySource
	broken bool
}

func (f *flakySource) History(ctx context.Context, window int64) (*trace.Set, string, error) {
	if f.broken {
		return nil, "", errors.New("feed down")
	}
	return f.inner.History(ctx, window)
}

func TestStalePlansServeThroughOutage(t *testing.T) {
	src := &flakySource{inner: &StaticSource{Set: tracegen.HighVolatility(7)}}
	svc := &Service{Source: src, Breaker: &Breaker{Threshold: 2}}
	ctx := context.Background()

	good, st, err := svc.Quote(ctx, testRequest())
	if err != nil || st != StatusMiss {
		t.Fatalf("healthy quote = %v, %v", st, err)
	}

	src.broken = true
	// While the breaker counts failures the upstream is still tried and
	// each failure serves the last-known-good body.
	for i := 0; i < 2; i++ {
		body, st, err := svc.Quote(ctx, testRequest())
		if err != nil || st != StatusStale {
			t.Fatalf("outage quote %d = %v, %v", i, st, err)
		}
		if !bytes.Equal(body, good) {
			t.Fatalf("stale body diverges from the recorded plan")
		}
	}
	if svc.Stats().BreakerOpens.Load() != 1 {
		t.Fatalf("breaker opens = %d, want 1", svc.Stats().BreakerOpens.Load())
	}
	if !svc.Degraded() {
		t.Fatal("service not degraded after the breaker opened")
	}
	// Open breaker: the dead upstream is not touched, stale still served.
	body, st, err := svc.Quote(ctx, testRequest())
	if err != nil || st != StatusStale || !bytes.Equal(body, good) {
		t.Fatalf("fast-fail quote = %v, %v", st, err)
	}
	if svc.Stats().BreakerFastFails.Load() != 1 {
		t.Fatalf("fast fails = %d, want 1", svc.Stats().BreakerFastFails.Load())
	}
	if svc.Stats().StalePlans.Load() != 3 {
		t.Fatalf("stale plans = %d, want 3", svc.Stats().StalePlans.Load())
	}
	// HistoryErrors counts only the tries that reached the upstream.
	if svc.Stats().HistoryErrors.Load() != 2 {
		t.Fatalf("history errors = %d, want 2", svc.Stats().HistoryErrors.Load())
	}
}

// TestTinyHistoryWindowIsClientError checks that a history window too
// short to hold two samples of a healthy source is the client's error:
// 400 and a validation count, never a history failure, so repeating it
// cannot open the breaker and degrade the service for everyone else.
// An empty source stays a history failure, and a too-short window sent
// as the half-open probe closes the breaker: the source answered.
func TestTinyHistoryWindowIsClientError(t *testing.T) {
	svc := testService()
	ctx := context.Background()
	tiny := testRequest()
	tiny.HistoryWindowHours = 0.01
	for i := 0; i < 5; i++ {
		if _, _, err := svc.Quote(ctx, tiny); !errors.Is(err, ErrInvalidRequest) || errors.Is(err, ErrHistory) {
			t.Fatalf("tiny window %d: err = %v, want ErrInvalidRequest only", i, err)
		}
	}
	m := svc.Stats()
	if m.ValidationErrors.Load() != 5 || m.HistoryErrors.Load() != 0 || m.BreakerOpens.Load() != 0 {
		t.Fatalf("validation %d, history %d, breaker opens %d; want 5, 0, 0",
			m.ValidationErrors.Load(), m.HistoryErrors.Load(), m.BreakerOpens.Load())
	}
	if svc.Degraded() {
		t.Fatal("tiny windows degraded the service")
	}
	if _, st, err := svc.Quote(ctx, testRequest()); err != nil || st != StatusMiss {
		t.Fatalf("another client's valid quote = %v, %v", st, err)
	}

	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/quote", "application/json",
		strings.NewReader(`{"work_hours":4,"deadline_hours":8,"history_window":0.01}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tiny window over HTTP returned %s, want 400", resp.Status)
	}

	empty := &Service{Source: &StaticSource{}}
	if _, _, err := empty.Quote(ctx, testRequest()); !errors.Is(err, ErrHistory) {
		t.Fatalf("empty source: err = %v, want ErrHistory", err)
	}

	now := time.Unix(0, 0)
	src := &flakySource{inner: &StaticSource{Set: tracegen.HighVolatility(7)}, broken: true}
	probed := &Service{Source: src, Breaker: &Breaker{Threshold: 1, Cooldown: time.Minute, Now: func() time.Time { return now }}}
	if _, _, err := probed.Quote(ctx, testRequest()); !errors.Is(err, ErrHistory) || !probed.Degraded() {
		t.Fatalf("broken source: err = %v, degraded %v; want ErrHistory and an open breaker", err, probed.Degraded())
	}
	src.broken = false
	now = now.Add(2 * time.Minute)
	if _, _, err := probed.Quote(ctx, tiny); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("tiny-window probe: err = %v, want ErrInvalidRequest", err)
	}
	if probed.Degraded() {
		t.Fatal("a tiny-window probe left the breaker half-open")
	}
}

func TestDegradedWithoutStalePlanErrors(t *testing.T) {
	svc := &Service{Source: failingSource{}, Breaker: &Breaker{Threshold: 1}}
	ctx := context.Background()
	// First failure reaches the upstream: surfaces as a history error.
	if _, _, err := svc.Quote(ctx, testRequest()); !errors.Is(err, ErrHistory) {
		t.Fatalf("err = %v, want ErrHistory", err)
	}
	// Breaker now open, nothing cached: ErrDegraded.
	if _, _, err := svc.Quote(ctx, testRequest()); !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
}

func TestHandlerDegradedMode(t *testing.T) {
	src := &flakySource{inner: &StaticSource{Set: tracegen.HighVolatility(7)}}
	svc := &Service{Source: src, Breaker: &Breaker{Threshold: 1}}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	reqBody := `{"work_hours":4,"deadline_hours":8,"history_window":3,"max_zones":2}`

	post := func() *http.Response {
		resp, err := http.Post(ts.URL+"/v1/quote", "application/json", strings.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	resp := post()
	good, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Quote-Stale") != "" {
		t.Fatalf("healthy response: %s stale=%q", resp.Status, resp.Header.Get("X-Quote-Stale"))
	}

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy healthz: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	src.broken = true
	resp = post()
	stale, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale response status = %s, want 200", resp.Status)
	}
	if resp.Header.Get("X-Quote-Stale") != "true" || resp.Header.Get("X-Quote-Cache") != "stale" {
		t.Fatalf("stale headers = %q / %q", resp.Header.Get("X-Quote-Stale"), resp.Header.Get("X-Quote-Cache"))
	}
	if !bytes.Equal(stale, good) {
		t.Fatal("stale body diverges from the recorded plan")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(hbody), "degraded") {
		t.Fatalf("degraded healthz = %s %q", hresp.Status, hbody)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"quoted_stale_plans_total 1",
		"quoted_breaker_opens_total 1",
		"quoted_breaker_half_opens_total",
		"quoted_breaker_fast_fails_total",
		"quoted_feed_stale_serves_total",
		"quoted_watchdog_trips_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestStreamerHistoryStaleServes pins the streamer as a one-shot
// history source: windows of its tape (trimmed backlog included) equal
// StaticSource windows of the same samples, digest and all, and
// StaleAfter is its one staleness rule — every one-shot served from a
// stale tape counts a feed stale serve, and each stall one watchdog
// trip.
func TestStreamerHistoryStaleServes(t *testing.T) {
	set := tracegen.HighVolatility(7)
	step := set.Step()
	metrics := NewMetrics()
	st := &Streamer{
		Metrics:    metrics.AttachStream(),
		Zones:      set.Zones(),
		Start:      set.Start(),
		Step:       step,
		Backlog:    16,
		StaleAfter: 50 * time.Millisecond,
	}
	if _, _, err := st.History(context.Background(), trace.Hour); err == nil || errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("empty tape History = %v, want a source error", err)
	}
	counts := func(what string, serves, trips int64) {
		t.Helper()
		if metrics.FeedStaleServes.Load() != serves || metrics.WatchdogTrips.Load() != trips {
			t.Fatalf("%s: stale serves %d, trips %d; want %d, %d", what,
				metrics.FeedStaleServes.Load(), metrics.WatchdogTrips.Load(), serves, trips)
		}
	}
	counts("empty tape", 1, 1) // no tick yet is a stall too
	const ticks = 40           // trims the backlog past its 2×16 bound
	for i := 0; i < ticks; i++ {
		if err := st.Ingest(uint64(i+1), set.PricesAt(set.Start()+int64(i)*step)); err != nil {
			t.Fatal(err)
		}
	}
	tape := &StaticSource{Set: set.Slice(set.Start()+int64(ticks-len(st.Snapshot().Backlog))*step, set.Start()+ticks*step)}
	for _, window := range []int64{step, trace.Hour, trace.Hour + step/2, 1000 * trace.Hour} {
		got, gotDigest, gotErr := st.History(context.Background(), window)
		want, wantDigest, wantErr := tape.History(context.Background(), window)
		if (gotErr != nil) != (wantErr != nil) || errors.Is(gotErr, ErrInvalidRequest) != errors.Is(wantErr, ErrInvalidRequest) {
			t.Fatalf("window %d: error %v, StaticSource %v", window, gotErr, wantErr)
		}
		if gotErr == nil && (gotDigest != wantDigest || got.Start() != want.Start() || got.Duration() != want.Duration()) {
			t.Fatalf("window %d: tape [%d,+%d) %s, StaticSource [%d,+%d) %s", window,
				got.Start(), got.Duration(), gotDigest, want.Start(), want.Duration(), wantDigest)
		}
	}
	counts("fresh tape", 1, 1)

	stall := func(serves int) {
		time.Sleep(2 * st.StaleAfter)
		for i := 0; i < serves; i++ {
			if _, _, err := st.History(context.Background(), trace.Hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	stall(3)
	counts("a stall served 3 times", 4, 2)
	// A tick ends the stall; the next one is a second trip.
	if err := st.Ingest(ticks+1, set.PricesAt(set.Start()+ticks*step)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.History(context.Background(), trace.Hour); err != nil {
		t.Fatal(err)
	}
	counts("after a tick", 4, 2)
	stall(1)
	counts("the next stall", 5, 3)
}
