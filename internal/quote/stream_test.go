package quote

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// streamFixture is a deterministic synthetic feed plus a fast
// subscription shape.
type streamFixture struct {
	set   *trace.Set
	shape Request
}

func newStreamFixture() streamFixture {
	return streamFixture{
		set:   tracegen.HighVolatility(7),
		shape: Request{WorkHours: 4, DeadlineHours: 12, MaxZones: 2, Top: 3},
	}
}

// row returns the feed's i-th (0-based) price row.
func (fx streamFixture) row(i int) []float64 {
	return fx.set.PricesAt(fx.set.Start() + int64(i)*fx.set.Step())
}

// streamer builds a Streamer over the fixture's feed geometry.
func (fx streamFixture) streamer() *Streamer {
	return &Streamer{
		Zones:           fx.set.Zones(),
		Start:           fx.set.Start(),
		Step:            fx.set.Step(),
		StaleAfter:      time.Hour,
		CrossCheckEvery: -1,
	}
}

// reorderRow is the fixture row with the first zone made drastically
// more expensive — flipping the cheapest-zone ordering so the plan
// table is guaranteed to change and a generation is published.
func (fx streamFixture) reorderRow(i int) []float64 {
	row := append([]float64(nil), fx.row(i)...)
	row[0] *= 10
	return row
}

// TestStreamerFanOut covers subscription plumbing: same-shape
// subscribers share one resident evaluator and each receives a pushed
// change; the shape bound rejects new shapes; closing the last
// subscriber releases the shape.
func TestStreamerFanOut(t *testing.T) {
	fx := newStreamFixture()
	st := fx.streamer()
	st.MaxShapes = 1
	a, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	other := fx.shape
	other.Top = 5
	if _, err := st.Subscribe(other); !errors.Is(err, ErrStreamCapacity) {
		t.Fatalf("second shape err = %v, want ErrStreamCapacity", err)
	}
	if got := st.Metrics.ShapeRejects.Load(); got != 1 {
		t.Fatalf("ShapeRejects = %d, want 1", got)
	}
	for i := 0; i < 4; i++ {
		if err := st.Ingest(uint64(i+1), fx.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The flipped-ordering row must publish a generation to everyone.
	if err := st.Ingest(5, fx.reorderRow(4)); err != nil {
		t.Fatal(err)
	}
	var evA, evB *StreamEvent
	select {
	case evA = <-a.Events():
	default:
		t.Fatal("subscriber a got no event")
	}
	select {
	case evB = <-b.Events():
	default:
		t.Fatal("subscriber b got no event")
	}
	if evA != evB {
		t.Fatal("same-shape subscribers should receive the same published event")
	}
	if evA.Generation == 0 || evA.Best == nil {
		t.Fatalf("empty event: %+v", evA)
	}
	if got := st.Generation(a); got != evA.Generation {
		t.Fatalf("Generation = %d, want %d", got, evA.Generation)
	}
	if got := st.Metrics.Subscribers.Load(); got != 2 {
		t.Fatalf("Subscribers = %d, want 2", got)
	}
	a.Close()
	a.Close() // idempotent
	b.Close()
	if got := st.Metrics.Subscribers.Load(); got != 0 {
		t.Fatalf("Subscribers after close = %d, want 0", got)
	}
	// The shape was released: a new same-shape subscribe catches up from
	// the backlog and sees the current table as its snapshot.
	c, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Snapshot() == nil || c.Snapshot().Best == nil {
		t.Fatal("re-created shape has no catch-up snapshot")
	}
}

// TestStreamerLatestWins pins the slow-consumer contract: a subscriber
// that never drains coalesces to the newest event instead of blocking
// the tick pipeline.
func TestStreamerLatestWins(t *testing.T) {
	fx := newStreamFixture()
	st := fx.streamer()
	sub, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := st.Ingest(1, fx.row(0)); err != nil {
		t.Fatal(err)
	}
	// Two ordering flips back to back, never draining in between.
	if err := st.Ingest(2, fx.reorderRow(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Ingest(3, fx.row(2)); err != nil {
		t.Fatal(err)
	}
	ev := <-sub.Events()
	if want := st.Latest(sub); ev != want {
		t.Fatalf("coalesced event generation %d, want latest %d", ev.Generation, want.Generation)
	}
	select {
	case stale := <-sub.Events():
		t.Fatalf("stale event generation %d still queued", stale.Generation)
	default:
	}
}

// TestStreamerFeedChaos is the feed-fault scenario: duplicate and
// reordered sequence numbers are dropped, gaps are filled by repeating
// the held price, and the resulting table is identical to a clean feed
// that delivered the same effective rows — chaos on the wire never
// reaches the evaluators.
func TestStreamerFeedChaos(t *testing.T) {
	fx := newStreamFixture()
	chaotic := fx.streamer()
	clean := fx.streamer()
	csub, err := chaotic.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	defer csub.Close()
	ksub, err := clean.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	defer ksub.Close()

	const n = 60
	rng := rand.New(rand.NewSource(42))
	var cleanRows [][]float64
	var lastDelivered []float64
	var dups, gaps, lastSeq int
	for seq := 1; seq <= n; seq++ {
		row := fx.row(seq - 1)
		if seq > 1 && rng.Float64() < 0.2 {
			// Feed gap: the sample never arrives; the streamer must act
			// as if the last delivered price held.
			gaps++
			cleanRows = append(cleanRows, lastDelivered)
			continue
		}
		if err := chaotic.Ingest(uint64(seq), row); err != nil {
			t.Fatal(err)
		}
		lastDelivered = row
		lastSeq = seq
		cleanRows = append(cleanRows, row)
		if rng.Float64() < 0.2 {
			// Duplicate/reordered delivery of an older sample.
			dups++
			if err := chaotic.Ingest(uint64(seq), fx.row(rng.Intn(seq))); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Trailing gaps are only filled once a later sequence arrives, so
	// the clean equivalent ends at the last delivered sequence.
	trail := n - lastSeq
	cleanRows = cleanRows[:lastSeq]
	for i, row := range cleanRows {
		if err := clean.Ingest(uint64(i+1), row); err != nil {
			t.Fatal(err)
		}
	}

	if got := chaotic.Metrics.DupTicks.Load(); got != int64(dups) {
		t.Errorf("DupTicks = %d, want %d", got, dups)
	}
	if got := chaotic.Metrics.GapFills.Load(); got != int64(gaps-trail) {
		t.Errorf("GapFills = %d, want %d", got, gaps-trail)
	}
	if got, want := chaotic.Metrics.Ticks.Load(), clean.Metrics.Ticks.Load(); got != want {
		t.Fatalf("chaotic feed applied %d ticks, clean %d", got, want)
	}
	a, b := chaotic.Latest(csub), clean.Latest(ksub)
	if (a == nil) != (b == nil) {
		t.Fatalf("latest: chaotic %v, clean %v", a, b)
	}
	if a != nil {
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if string(aj) != string(bj) {
			t.Fatalf("chaotic table diverges from clean feed\nchaotic %s\nclean   %s", aj, bj)
		}
	}
}

// TestStreamerLateSubscriber pins backlog catch-up: subscribing after
// the feed has been running yields the same table an early subscriber
// has.
func TestStreamerLateSubscriber(t *testing.T) {
	fx := newStreamFixture()
	st := fx.streamer()
	early, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	for i := 0; i < 12; i++ {
		row := fx.row(i)
		if i == 8 {
			row = fx.reorderRow(i)
		}
		if err := st.Ingest(uint64(i+1), row); err != nil {
			t.Fatal(err)
		}
	}
	// A different shape forces a fresh evaluator fed purely from the
	// backlog; same shape must join the resident evaluator.
	late, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if got, want := late.Snapshot(), st.Latest(early); got != want {
		t.Fatalf("same-shape late subscriber snapshot %p, want shared %p", got, want)
	}
	other := fx.shape
	other.MaxZones = 1
	osub, err := st.Subscribe(other)
	if err != nil {
		t.Fatal(err)
	}
	defer osub.Close()
	snap := osub.Snapshot()
	if snap == nil || snap.Best == nil || snap.Generation == 0 {
		t.Fatalf("fresh-shape catch-up produced no table: %+v", snap)
	}
	if len(snap.Best.Zones) != 1 {
		t.Fatalf("max_zones=1 shape ranked %d-zone best plan", len(snap.Best.Zones))
	}
}

// TestStreamerRejectsWindow pins the stream path's window rule: the
// feed's retention is the window, so a subscription carrying a history
// window is invalid, while the same shape without one subscribes.
func TestStreamerRejectsWindow(t *testing.T) {
	fx := newStreamFixture()
	st := fx.streamer()
	for _, h := range []float64{48, -1, math.NaN()} {
		shape := fx.shape
		shape.HistoryWindowHours = h
		if _, err := st.Subscribe(shape); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("window %g: Subscribe err = %v, want ErrInvalidRequest", h, err)
		}
	}
	sub, err := st.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	// The window-less shape is still no one-shot quote.
	shape := fx.shape
	shape.Normalize()
	if err := shape.Validate(); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("one-shot Validate of a window-less shape: %v, want ErrInvalidRequest", err)
	}
}

// TestStreamerIngestValidation covers the feed-side error path.
func TestStreamerIngestValidation(t *testing.T) {
	fx := newStreamFixture()
	st := fx.streamer()
	if err := st.Ingest(1, []float64{1}); err == nil {
		t.Fatal("short row accepted")
	}
}

// TestStreamSSEEndpoint drives the SSE wire end to end: headers,
// the immediate snapshot frame, and a pushed frame arriving over the
// open connection when the feed moves.
func TestStreamSSEEndpoint(t *testing.T) {
	fx := newStreamFixture()
	st := fx.streamer()
	for i := 0; i < 6; i++ {
		if err := st.Ingest(uint64(i+1), fx.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewStreamingHandler(testService(), st))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/v1/quotes/stream?work_hours=4&deadline_hours=12&max_zones=2&top=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	if resp.Header.Get("X-Plan-Generation") == "" {
		t.Fatal("missing X-Plan-Generation")
	}
	if resp.Header.Get("X-Quote-Stale") != "" {
		t.Fatal("fresh feed marked stale")
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
			frames <- fr
		}
	}()
	first := nextFrame(t, frames)
	if first.event != "plan" {
		t.Fatalf("first frame event %q", first.event)
	}
	var snap StreamEvent
	if err := json.Unmarshal([]byte(first.data), &snap); err != nil {
		t.Fatalf("snapshot frame: %v", err)
	}
	if snap.Best == nil {
		t.Fatal("snapshot frame has no best plan")
	}
	// The snapshot frame is read, so the subscription is live: a
	// table-changing tick must arrive as a pushed frame over the same
	// connection — the incremental-flush contract.
	if err := st.Ingest(7, fx.reorderRow(6)); err != nil {
		t.Fatal(err)
	}
	second := nextFrame(t, frames)
	if second.event != "plan" {
		t.Fatalf("pushed frame event %q", second.event)
	}
	var pushed StreamEvent
	if err := json.Unmarshal([]byte(second.data), &pushed); err != nil {
		t.Fatal(err)
	}
	if pushed.Generation <= snap.Generation {
		t.Fatalf("pushed generation %d not past snapshot %d", pushed.Generation, snap.Generation)
	}
	cancel()
	waitFor(t, "subscriber release", func() bool { return st.Metrics.Subscribers.Load() == 0 })
}

type sseFrame struct{ id, event, data string }

// readSSEFrame parses one blank-line-terminated SSE frame.
func readSSEFrame(br *bufio.Reader) (sseFrame, error) {
	var fr sseFrame
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return fr, err
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if fr.event != "" || fr.data != "" {
				return fr, nil
			}
		case strings.HasPrefix(line, "id: "):
			fr.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			fr.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			fr.data = line[len("data: "):]
		}
	}
}

func nextFrame(t *testing.T, frames <-chan sseFrame) sseFrame {
	t.Helper()
	select {
	case fr, ok := <-frames:
		if !ok {
			t.Fatal("stream closed before frame")
		}
		return fr
	case <-time.After(15 * time.Second):
		t.Fatal("no SSE frame within 15s")
	}
	panic("unreachable")
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStreamPollEndpoint covers the long-poll mode: an immediate
// answer past the client's generation, and a 204 heartbeat — flagged
// stale here, because the fixture stalls the feed — when nothing newer
// arrives in time.
func TestStreamPollEndpoint(t *testing.T) {
	fx := newStreamFixture()
	st := fx.streamer()
	st.StaleAfter = time.Nanosecond // any pause counts as a stall
	for i := 0; i < 6; i++ {
		if err := st.Ingest(uint64(i+1), fx.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(NewStreamingHandler(testService(), st))
	defer srv.Close()
	base := srv.URL + "/v1/quotes/stream?work_hours=4&deadline_hours=12&max_zones=2&top=3&mode=poll"

	resp, err := http.Get(base + "&gen=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ev StreamEvent
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Best == nil || ev.Generation == 0 {
		t.Fatalf("empty poll answer: %s", body)
	}
	if got := resp.Header.Get("X-Plan-Generation"); got != strconv.FormatUint(ev.Generation, 10) {
		t.Fatalf("X-Plan-Generation %q, body generation %d", got, ev.Generation)
	}

	resp, err = http.Get(base + "&gen=" + strconv.FormatUint(ev.Generation, 10) + "&timeout_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("timeout status %d, want 204", resp.StatusCode)
	}
	if resp.Header.Get("X-Quote-Stale") != "true" {
		t.Fatal("stalled feed not flagged X-Quote-Stale on poll timeout")
	}
	if got := resp.Header.Get("X-Plan-Generation"); got != strconv.FormatUint(ev.Generation, 10) {
		t.Fatalf("timeout X-Plan-Generation %q, want %d", got, ev.Generation)
	}
	waitFor(t, "subscriber release", func() bool { return st.Metrics.Subscribers.Load() == 0 })
}

// TestStreamEndpointValidation covers the request-side error paths.
func TestStreamEndpointValidation(t *testing.T) {
	fx := newStreamFixture()
	srv := httptest.NewServer(NewStreamingHandler(testService(), fx.streamer()))
	defer srv.Close()
	for _, q := range []string{
		"",                               // missing work/deadline
		"work_hours=4",                   // missing deadline
		"work_hours=4&deadline_hours=2",  // deadline below work
		"work_hours=x&deadline_hours=12", // unparsable
		"work_hours=4&deadline_hours=12&max_zones=99", // over limit
	} {
		resp, err := http.Get(srv.URL + "/v1/quotes/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestAttachStreamMetricsRender pins that the streaming counters land
// on the service registry (after the pinned base exposition, which a
// golden test guards separately).
func TestAttachStreamMetricsRender(t *testing.T) {
	m := NewMetrics()
	sm := m.AttachStream()
	sm.Ticks.Add(3)
	sm.GapFills.Inc()
	var buf strings.Builder
	m.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		"quoted_stream_ticks_total 3",
		"quoted_stream_gap_fills_total 1",
		"quoted_stream_subscribers 0",
		`quoted_latency_seconds{stage="plan_push",quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
