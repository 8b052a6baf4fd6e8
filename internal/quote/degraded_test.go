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

	"repro/internal/faults"
	"repro/internal/spotapi"
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

func TestFeedSourceRetriesAndServesStale(t *testing.T) {
	set := tracegen.HighVolatility(7).Slice(0, 6*trace.Hour)
	epoch := time.Now().Add(-time.Duration(set.Duration()) * time.Second)
	// The first upstream request fails with an injected 503; the retry
	// schedule absorbs it.
	inner := spotapi.Handler(set, epoch)
	srv := httptest.NewServer(faults.Handler(inner,
		faults.Scenario{Plans: []faults.Plan{{At: 0, Kind: faults.HTTPError, Duration: 1}}}, nil))

	stats := NewMetrics()
	fs := &FeedSource{
		Client:   &spotapi.Client{BaseURL: srv.URL, HTTPClient: srv.Client()},
		TTL:      time.Nanosecond, // every History refetches
		Attempts: 3,
		Backoff:  faults.Backoff{Base: time.Millisecond, Cap: 2 * time.Millisecond, Jitter: -1},
		MaxStale: time.Nanosecond, // any stale serve also trips the watchdog
		Stats:    stats,
	}
	if _, _, err := fs.History(context.Background(), 3*trace.Hour); err != nil {
		t.Fatalf("History with one injected 503 = %v; retries should absorb it", err)
	}
	if stats.FeedStaleServes.Load() != 0 {
		t.Fatal("healthy fetch counted a stale serve")
	}

	// Upstream gone for good: the last fetched set is served, counted,
	// and — past MaxStale — watchdogged.
	srv.Close()
	set2, _, err := fs.History(context.Background(), 3*trace.Hour)
	if err != nil || set2 == nil {
		t.Fatalf("stale History = %v", err)
	}
	if stats.FeedStaleServes.Load() != 1 {
		t.Fatalf("feed stale serves = %d, want 1", stats.FeedStaleServes.Load())
	}
	if stats.WatchdogTrips.Load() != 1 {
		t.Fatalf("watchdog trips = %d, want 1", stats.WatchdogTrips.Load())
	}
}
