package quote

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

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

// TestSourceFailureIsErrHistoryEveryTime checks the one failure path of
// a one-shot quote: once the source fails, every request is ErrHistory
// (502 over HTTP) even right after a successful quote of the same
// shape, nothing is served in its place, and /healthz stays 200. When
// the source answers again the plan cache serves the shape as before.
func TestSourceFailureIsErrHistoryEveryTime(t *testing.T) {
	src := &flakySource{inner: &StaticSource{Set: tracegen.HighVolatility(7)}}
	svc := &Service{Source: src}
	ctx := context.Background()
	good, st, err := svc.Quote(ctx, testRequest())
	if err != nil || st != StatusMiss {
		t.Fatalf("healthy quote = %v, %v", st, err)
	}

	src.broken = true
	for i := 0; i < 3; i++ {
		if body, st, err := svc.Quote(ctx, testRequest()); !errors.Is(err, ErrHistory) || body != nil || st != "" {
			t.Fatalf("outage quote %d = %d bytes, %q, %v; want ErrHistory alone", i, len(body), st, err)
		}
	}
	ts := httptest.NewServer(NewStreamingHandler(svc, nil))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/quote", "application/json",
		strings.NewReader(`{"work_hours":4,"deadline_hours":8,"history_window":3,"max_zones":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || resp.Header.Get("X-Quote-Cache") != "" {
		t.Fatalf("outage over HTTP = %s, X-Quote-Cache %q; want 502 and no cache status",
			resp.Status, resp.Header.Get("X-Quote-Cache"))
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || string(hbody) != "ok\n" {
		t.Fatalf("healthz during the outage = %s %q, want 200 ok", hz.Status, hbody)
	}
	m := svc.Stats()
	if m.HistoryErrors.Load() != 4 || m.CacheHits.Load() != 0 || m.CacheMisses.Load() != 1 {
		t.Fatalf("history errors %d, hits %d, misses %d; want 4, 0, 1",
			m.HistoryErrors.Load(), m.CacheHits.Load(), m.CacheMisses.Load())
	}

	src.broken = false
	body, st, err := svc.Quote(ctx, testRequest())
	if err != nil || st != StatusHit || !bytes.Equal(body, good) {
		t.Fatalf("recovered quote = %q, %v; want the cached plan as a hit", st, err)
	}
}

// TestTinyHistoryWindowIsClientError checks that a history window too
// short to hold two samples of a healthy source is the client's error:
// 400 and a validation count, never a history failure. An empty source
// stays a history failure.
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
	if m.ValidationErrors.Load() != 5 || m.HistoryErrors.Load() != 0 {
		t.Fatalf("validation %d, history %d; want 5, 0", m.ValidationErrors.Load(), m.HistoryErrors.Load())
	}
	if _, st, err := svc.Quote(ctx, testRequest()); err != nil || st != StatusMiss {
		t.Fatalf("another client's valid quote = %v, %v", st, err)
	}

	ts := httptest.NewServer(NewStreamingHandler(svc, nil))
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
}

// TestStreamerHistoryStaleServes pins the streamer as a one-shot
// history source: windows of its tape (trimmed window included) equal
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

// TestStreamerHistoryDuringTicks pins the one-shot window's lifetime:
// History hands out slices of the streamer's tape without copying, so
// a window must keep its samples while the feed goes on appending,
// trimming and restarting the tape under it, and its chain states
// must stay those of its samples. Run under -race, it also checks that
// reading a window's prices or states never races with a tick.
func TestStreamerHistoryDuringTicks(t *testing.T) {
	fx := newStreamFixture()
	st := fx.streamer()
	st.Backlog = 8
	for i := 0; i < 2; i++ {
		if err := st.Ingest(uint64(i+1), fx.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		seq := uint64(2)
		for i := 2; i < 400; i++ {
			seq++
			if i%97 == 0 {
				seq += 3 * uint64(st.Backlog) // a jump past Backlog restarts the tape
			}
			if err := st.Ingest(seq, fx.row(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		win, digest, err := st.History(context.Background(), 6*trace.Hour)
		if err != nil {
			t.Error(err)
			break
		}
		runtime.Gosched()
		if again := Digest(win); again != digest {
			t.Errorf("a window's samples changed after History returned: digest %s, now %s", digest, again)
			break
		}
		for _, sr := range win.Series {
			ids, vals := sr.States()
			for i, p := range sr.Prices {
				if vals[ids[i]] != trace.Bucket(p) {
					t.Fatalf("zone %s sample %d (%g) reads state %g, want %g", sr.Zone, i, p, vals[ids[i]], trace.Bucket(p))
				}
			}
		}
	}
	<-done
}
