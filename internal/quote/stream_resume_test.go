package quote

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/leak"
)

// sseClient opens one SSE subscription and pumps parsed frames.
func sseClient(t *testing.T, ctx context.Context, url string, lastEventID string) (*http.Response, <-chan sseFrame) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	frames := make(chan sseFrame)
	go func() {
		defer close(frames)
		br := bufio.NewReader(resp.Body)
		for {
			fr, err := readSSEFrame(br)
			if err != nil {
				return
			}
			select {
			case frames <- fr:
			case <-ctx.Done():
				// The test stopped consuming; don't park on the send.
				return
			}
		}
	}()
	return resp, frames
}

// TestStreamSSEResume pins the reconnect contract: a client presenting
// Last-Event-ID gets no replay of tables it already holds, announced
// generations are floored at its resume point, and the next real table
// change arrives with a strictly higher generation — monotonic across
// the reconnect.
func TestStreamSSEResume(t *testing.T) {
	defer leak.CheckT(t, leak.Baseline())
	fx := newStreamFixture()
	st := fx.streamer()
	st.Heartbeat = 30 * time.Millisecond
	for i := 0; i < 4; i++ {
		if err := st.Ingest(uint64(i+1), fx.reorderRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	gen := st.Generation(sub)
	sub.Close()
	if gen < 2 {
		t.Fatalf("fixture produced generation %d, want >= 2", gen)
	}
	srv := httptest.NewServer(NewStreamingHandler(testService(), st))
	defer srv.Close()
	url := srv.URL + "/v1/quotes/stream?work_hours=4&deadline_hours=12&max_zones=2&top=3"

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, frames := sseClient(t, ctx, url, strconv.FormatUint(gen, 10))
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Plan-Generation"); got != strconv.FormatUint(gen, 10) {
		t.Fatalf("X-Plan-Generation %q, want %d", got, gen)
	}
	// No replay: the first frame is a heartbeat at the resume floor,
	// not the snapshot the client already holds.
	first := nextFrame(t, frames)
	if first.event != "heartbeat" {
		t.Fatalf("first frame after resume is %q, want heartbeat", first.event)
	}
	var hb StreamEvent
	if err := json.Unmarshal([]byte(first.data), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Generation != gen {
		t.Fatalf("heartbeat generation %d, want resume floor %d", hb.Generation, gen)
	}
	// A real change still comes through, strictly past the floor.
	if err := st.Ingest(5, fx.row(4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Ingest(6, fx.reorderRow(5)); err != nil {
		t.Fatal(err)
	}
	last := gen
	for {
		fr := nextFrame(t, frames)
		var ev StreamEvent
		if err := json.Unmarshal([]byte(fr.data), &ev); err != nil {
			t.Fatal(err)
		}
		if fr.event == "heartbeat" {
			if ev.Generation < last {
				t.Fatalf("heartbeat generation %d regressed below %d", ev.Generation, last)
			}
			continue
		}
		if ev.Generation <= gen {
			t.Fatalf("replayed generation %d at or below resume floor %d", ev.Generation, gen)
		}
		break
	}
	cancel()
	waitFor(t, "subscriber release", func() bool { return st.Metrics.Subscribers.Load() == 0 })
}

// TestStreamSSEResumeAhead pins the failover case: a client whose
// resume floor is ahead of this backend (it was served by a faster
// peer) must not see generations regress — heartbeats announce the
// floor, and stale lower tables are suppressed.
func TestStreamSSEResumeAhead(t *testing.T) {
	defer leak.CheckT(t, leak.Baseline())
	fx := newStreamFixture()
	st := fx.streamer()
	st.Heartbeat = 30 * time.Millisecond
	for i := 0; i < 3; i++ {
		if err := st.Ingest(uint64(i+1), fx.reorderRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	ahead := st.Generation(sub) + 5
	sub.Close()
	srv := httptest.NewServer(NewStreamingHandler(testService(), st))
	defer srv.Close()
	url := srv.URL + "/v1/quotes/stream?work_hours=4&deadline_hours=12&max_zones=2&top=3&gen=" + strconv.FormatUint(ahead, 10)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, frames := sseClient(t, ctx, url, "")
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Plan-Generation"); got != strconv.FormatUint(ahead, 10) {
		t.Fatalf("X-Plan-Generation %q, want floored %d", got, ahead)
	}
	for i := 0; i < 3; i++ {
		fr := nextFrame(t, frames)
		if fr.event != "heartbeat" {
			t.Fatalf("frame %d: event %q with a behind backend, want heartbeat", i, fr.event)
		}
		var ev StreamEvent
		if err := json.Unmarshal([]byte(fr.data), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Generation != ahead {
			t.Fatalf("heartbeat generation %d, want floor %d", ev.Generation, ahead)
		}
	}
	cancel()
	waitFor(t, "subscriber release", func() bool { return st.Metrics.Subscribers.Load() == 0 })
}

// TestStreamSSEClientDisconnect covers the mid-stream disconnect: the
// client vanishes between pushed frames, the handler unwinds on the
// failed write or context, the subscription releases, and nothing
// leaks while the feed keeps ticking.
func TestStreamSSEClientDisconnect(t *testing.T) {
	defer leak.CheckT(t, leak.Baseline())
	fx := newStreamFixture()
	st := fx.streamer()
	st.Heartbeat = 20 * time.Millisecond
	for i := 0; i < 4; i++ {
		if err := st.Ingest(uint64(i+1), fx.reorderRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewStreamingHandler(testService(), st))
	defer srv.Close()
	url := srv.URL + "/v1/quotes/stream?work_hours=4&deadline_hours=12&max_zones=2&top=3"

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, frames := sseClient(t, ctx, url, "")
	if fr := nextFrame(t, frames); fr.event != "plan" {
		t.Fatalf("first frame %q", fr.event)
	}
	resp.Body.Close() // abrupt client death, mid-subscription
	for i := 4; i < 10; i++ {
		if err := st.Ingest(uint64(i+1), fx.reorderRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "subscriber release after disconnect", func() bool {
		return st.Metrics.Subscribers.Load() == 0
	})
}

// TestStreamPollContextCancel covers a long-poll abandoned mid-wait:
// the handler returns on the client's cancellation, releases the
// subscription, and leaks nothing.
func TestStreamPollContextCancel(t *testing.T) {
	defer leak.CheckT(t, leak.Baseline())
	fx := newStreamFixture()
	st := fx.streamer()
	for i := 0; i < 4; i++ {
		if err := st.Ingest(uint64(i+1), fx.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	gen := st.Generation(sub)
	sub.Close()
	srv := httptest.NewServer(NewStreamingHandler(testService(), st))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	url := srv.URL + "/v1/quotes/stream?work_hours=4&deadline_hours=12&max_zones=2&top=3&mode=poll&gen=" +
		strconv.FormatUint(gen, 10) + "&timeout_ms=30000"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the poll block on the event channel
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled poll returned a response")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled poll did not return")
	}
	waitFor(t, "subscriber release after cancel", func() bool {
		return st.Metrics.Subscribers.Load() == 0
	})
}

// TestStreamPollHugeTimeout pins the timeout_ms clamp: a value whose
// millisecond-to-nanosecond scaling overflows int64 must still wait
// (clamped to maxPollTimeout) for a new generation, not wrap to a
// negative or sub-millisecond timer that answers 204 at once.
func TestStreamPollHugeTimeout(t *testing.T) {
	defer leak.CheckT(t, leak.Baseline())
	fx := newStreamFixture()
	st := fx.streamer()
	for i := 0; i < 4; i++ {
		if err := st.Ingest(uint64(i+1), fx.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	gen := st.Generation(sub)
	sub.Close()
	srv := httptest.NewServer(NewStreamingHandler(testService(), st))
	defer srv.Close()

	// 9223372036855 ms wraps to a negative duration, 18446744073710 ms
	// to about 448 µs.
	for _, ms := range []string{"9223372036855", "18446744073710"} {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		url := srv.URL + "/v1/quotes/stream?work_hours=4&deadline_hours=12&max_zones=2&top=3&mode=poll&gen=" +
			strconv.FormatUint(gen, 10) + "&timeout_ms=" + ms
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		cancel()
		if err == nil {
			resp.Body.Close()
			t.Fatalf("timeout_ms=%s: poll answered %d before the 300 ms client deadline", ms, resp.StatusCode)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("timeout_ms=%s: %v, want the client deadline", ms, err)
		}
	}
	waitFor(t, "subscriber release after the client deadlines", func() bool {
		return st.Metrics.Subscribers.Load() == 0
	})
}
