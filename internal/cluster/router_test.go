package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/quote"
)

// validBody is a decodable quote request for routing tests; the echo
// backends never evaluate it.
const validBody = `{"work_hours":4,"deadline_hours":8,"history_window":3}`

// echoBackend answers 200 with its name and the request body, so tests
// can verify which backend served and that the body survived failover.
func echoBackend(name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s:%s", name, body)
	})
}

// failingBackend always answers 500.
func failingBackend() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
}

// postQuote drives one request through the router handler.
func postQuote(h http.Handler, body, tenant string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/quote", strings.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRouterAffinityPinsRequests checks that identical request bodies
// always land on the same backend while the workload as a whole
// spreads across the fleet.
func TestRouterAffinityPinsRequests(t *testing.T) {
	r := &Router{
		Backends: []*Backend{
			NewBackend("b0", echoBackend("b0")),
			NewBackend("b1", echoBackend("b1")),
			NewBackend("b2", echoBackend("b2")),
		},
		Policy: NewAffinity(),
	}
	h := r.Handler()

	first := postQuote(h, validBody, "").Header().Get("X-Backend")
	for i := 0; i < 10; i++ {
		if got := postQuote(h, validBody, "").Header().Get("X-Backend"); got != first {
			t.Fatalf("identical request moved backend %q → %q", first, got)
		}
	}
	seen := map[string]bool{}
	for w := 1; w <= 24; w++ {
		body := fmt.Sprintf(`{"work_hours":%d,"deadline_hours":%d,"history_window":3}`, w, 2*w)
		rec := postQuote(h, body, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d returned %d", w, rec.Code)
		}
		seen[rec.Header().Get("X-Backend")] = true
	}
	if len(seen) < 2 {
		t.Fatalf("24 distinct shapes all routed to %v; affinity is not spreading", seen)
	}
}

// TestRouterFailoverAndEjection kills one backend and checks the
// client never sees it: requests fail over with intact bodies, the
// breaker ejects the backend after Threshold failures, and traffic
// stops reaching the corpse.
func TestRouterFailoverAndEjection(t *testing.T) {
	dead := NewBackend("b0", failingBackend())
	dead.Breaker = &quote.Breaker{Threshold: 2, Cooldown: time.Hour}
	live := NewBackend("b1", echoBackend("b1"))
	r := &Router{Backends: []*Backend{dead, live}, Policy: NewRoundRobin()}
	h := r.Handler()

	for i := 0; i < 6; i++ {
		rec := postQuote(h, validBody, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d returned %d, want failover to 200", i, rec.Code)
		}
		if got := rec.Header().Get("X-Backend"); got != "b1" {
			t.Fatalf("request %d served by %q, want b1", i, got)
		}
		if got := rec.Body.String(); got != "b1:"+validBody {
			t.Fatalf("request %d body %q: request body did not survive failover", i, got)
		}
	}
	if dead.Available() {
		t.Fatal("failing backend still routable after threshold failures")
	}
	m := r.Stats()
	if m.Ejections.Load() != 1 {
		t.Fatalf("ejections = %d, want 1", m.Ejections.Load())
	}
	// Round-robin prefers b0 on every other request; with b0 ejected
	// only the 2 pre-ejection attempts may have reached it.
	if got := dead.Failures(); got != 2 {
		t.Fatalf("dead backend saw %d forwards, want exactly the 2 pre-ejection attempts", got)
	}
	if m.Failovers.Load() != 2 {
		t.Fatalf("failovers = %d, want 2 (one per pre-ejection attempt)", m.Failovers.Load())
	}
}

// TestRouterAllBackendsDead checks the 503 path and the degraded
// /healthz once the whole fleet is ejected.
func TestRouterAllBackendsDead(t *testing.T) {
	mk := func(name string) *Backend {
		b := NewBackend(name, failingBackend())
		b.Breaker = &quote.Breaker{Threshold: 1, Cooldown: time.Hour}
		return b
	}
	r := &Router{Backends: []*Backend{mk("b0"), mk("b1")}}
	h := r.Handler()

	rec := postQuote(h, validBody, "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead fleet returned %d, want 503", rec.Code)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("bad 503 envelope %q (%v)", rec.Body.String(), err)
	}
	if got := r.Stats().Unroutable.Load(); got != 1 {
		t.Fatalf("unroutable = %d, want 1", got)
	}
	hz := httptest.NewRecorder()
	h.ServeHTTP(hz, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hz.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d with no routable backends, want 503", hz.Code)
	}
}

// TestRouterQuota checks per-tenant admission: the configured tenant
// is throttled at its own quota with a 429 envelope and the dedicated
// metric, while other tenants are untouched.
func TestRouterQuota(t *testing.T) {
	r := &Router{
		Backends: []*Backend{NewBackend("b0", echoBackend("b0"))},
		Limiter: &Limiter{
			Tenants: map[string]Quota{"acme": {Rate: 1, Burst: 2}},
		},
	}
	h := r.Handler()

	codes := []int{}
	for i := 0; i < 4; i++ {
		codes = append(codes, postQuote(h, validBody, "acme").Code)
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Fatalf("burst requests returned %v, want 200s first", codes)
	}
	throttled := postQuote(h, validBody, "acme")
	if throttled.Code != http.StatusTooManyRequests {
		t.Fatalf("post-burst request returned %d, want 429", throttled.Code)
	}
	if got := throttled.Header().Get("Retry-After"); got == "" {
		t.Fatal("429 carries no Retry-After")
	}
	m := r.Stats()
	if m.QuotaRejected.Load() == 0 {
		t.Fatal("dedicated quota_rejected metric not incremented")
	}
	// The default bucket is unlimited here: other tenants sail through.
	if rec := postQuote(h, validBody, "other"); rec.Code != http.StatusOK {
		t.Fatalf("unconfigured tenant returned %d, want 200", rec.Code)
	}
	var buf strings.Builder
	m.Render(&buf)
	for _, want := range []string{"quotelb_quota_rejected_total", `quotelb_tenant_rejected_total{tenant="acme"}`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRouterBadRequest checks malformed bodies and stream queries die
// at the front door.
func TestRouterBadRequest(t *testing.T) {
	served := 0
	r := &Router{Backends: []*Backend{NewBackend("b0", http.HandlerFunc(func(http.ResponseWriter, *http.Request) { served++ }))}}
	h := r.Handler()
	for i, req := range []*http.Request{
		httptest.NewRequest(http.MethodPost, "/v1/quote", strings.NewReader(`{"work_hours":`)),
		httptest.NewRequest(http.MethodGet, "/v1/quotes/stream?work_hours=four&deadline_hours=12", nil),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("malformed %s %s returned %d, want 400", req.Method, req.URL, rec.Code)
		}
		if served != 0 {
			t.Fatalf("malformed %s %s reached a backend", req.Method, req.URL)
		}
		if got := r.Stats().BadRequests.Load(); got != int64(i+1) {
			t.Fatalf("bad_requests = %d, want %d", got, i+1)
		}
	}
}

// TestRouterProbeReadmission ejects a backend, lets it recover, and
// checks the probe loop readmits it.
func TestRouterProbeReadmission(t *testing.T) {
	var healthy bool
	var mu sync.Mutex
	b := NewBackend("b0", failingBackend())
	b.Breaker = &quote.Breaker{Threshold: 1, Cooldown: time.Millisecond}
	r := &Router{Backends: []*Backend{b, NewBackend("b1", echoBackend("b1"))}}
	h := r.Handler()

	if rec := postQuote(h, validBody, ""); rec.Code != http.StatusOK {
		t.Fatalf("failover request returned %d", rec.Code)
	}
	if b.Available() {
		t.Fatal("backend not ejected")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.ProbeLoop(ctx, time.Millisecond, func(_ context.Context, _ *Backend) error {
			mu.Lock()
			defer mu.Unlock()
			if !healthy {
				return fmt.Errorf("still down")
			}
			return nil
		})
	}()

	time.Sleep(10 * time.Millisecond) // a few failing probes
	mu.Lock()
	healthy = true
	mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for !b.Available() {
		if time.Now().After(deadline) {
			t.Fatal("recovered backend never readmitted")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	if r.Stats().Readmissions.Load() == 0 {
		t.Fatal("readmissions metric not incremented")
	}
}

// TestRouterMetricsAndHealthz covers the local (non-routed) surface.
func TestRouterMetricsAndHealthz(t *testing.T) {
	r := &Router{Backends: []*Backend{NewBackend("b0", echoBackend("b0"))}}
	h := r.Handler()
	postQuote(h, validBody, "")

	hz := httptest.NewRecorder()
	h.ServeHTTP(hz, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hz.Code != http.StatusOK || !strings.Contains(hz.Body.String(), "1/1") {
		t.Fatalf("healthz = %d %q", hz.Code, hz.Body.String())
	}
	mx := httptest.NewRecorder()
	h.ServeHTTP(mx, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{
		"quotelb_requests_total 1",
		"quotelb_routed_total 1",
		`quotelb_backend_served_total{backend="b0"} 1`,
		`quotelb_latency_seconds{stage="route",quantile="0.99"}`,
	} {
		if !strings.Contains(mx.Body.String(), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, mx.Body.String())
		}
	}
}

// TestRouterConcurrent hammers the router with every policy under the
// race detector.
func TestRouterConcurrent(t *testing.T) {
	for _, p := range Policies() {
		r := &Router{
			Backends: []*Backend{
				NewBackend("b0", echoBackend("b0")),
				NewBackend("b1", echoBackend("b1")),
				NewBackend("b2", echoBackend("b2")),
			},
			Policy: p,
		}
		h := r.Handler()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					body := fmt.Sprintf(`{"work_hours":%d,"deadline_hours":%d,"history_window":3}`, 1+i%20, 2*(1+i%20))
					if rec := postQuote(h, body, ""); rec.Code != http.StatusOK {
						t.Errorf("%s: concurrent request returned %d", p.Name(), rec.Code)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if got := r.Stats().Routed.Load(); got != 400 {
			t.Fatalf("%s: routed = %d, want 400", p.Name(), got)
		}
	}
}

// TestRouterFailoverHeaderFidelity pins the wire contract across the
// buffered failover: every quote header the winning backend sets —
// cache status, staleness, plan generation — reaches the client
// verbatim, with nothing leaked from the failed attempt.
func TestRouterFailoverHeaderFidelity(t *testing.T) {
	cases := []struct {
		name    string
		headers map[string]string
	}{
		{"cache hit", map[string]string{"X-Quote-Cache": "hit"}},
		{"stale degraded", map[string]string{"X-Quote-Cache": "stale", "X-Quote-Stale": "true"}},
		{"streamed generation", map[string]string{"X-Plan-Generation": "42", "X-Quote-Cache": "miss"}},
		{"stale stream", map[string]string{"X-Plan-Generation": "7", "X-Quote-Stale": "true"}},
	}
	for _, tc := range cases {
		dead := NewBackend("b0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			// The corpse sets headers too; none of them may leak.
			w.Header().Set("X-Quote-Stale", "false")
			w.Header().Set("X-Plan-Generation", "999")
			http.Error(w, "boom", http.StatusInternalServerError)
		}))
		live := NewBackend("b1", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			for k, v := range tc.headers {
				w.Header().Set(k, v)
			}
			w.Write([]byte(`{"plans":[]}`))
		}))
		r := &Router{Backends: []*Backend{dead, live}, Policy: NewRoundRobin()}
		rec := postQuote(r.Handler(), validBody, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, rec.Code)
		}
		for k, v := range tc.headers {
			if got := rec.Header().Get(k); got != v {
				t.Errorf("%s: header %s = %q, want %q", tc.name, k, got, v)
			}
		}
		for k, v := range map[string]string{"X-Backend": "b1"} {
			if got := rec.Header().Get(k); got != v {
				t.Errorf("%s: header %s = %q, want %q", tc.name, k, got, v)
			}
		}
		if tc.headers["X-Quote-Stale"] == "" && rec.Header().Get("X-Quote-Stale") != "" {
			t.Errorf("%s: X-Quote-Stale %q leaked from the failed attempt", tc.name, rec.Header().Get("X-Quote-Stale"))
		}
		if want, got := tc.headers["X-Plan-Generation"], rec.Header().Get("X-Plan-Generation"); want == "" && got != "" {
			t.Errorf("%s: X-Plan-Generation %q leaked from the failed attempt", tc.name, got)
		}
		if rec.Body.String() != `{"plans":[]}` {
			t.Errorf("%s: body %q polluted by failed attempt", tc.name, rec.Body.String())
		}
	}
}

// TestRouterStreamFailover drives the streaming route over a real
// connection: the first backend dies with a 5xx (its error body must
// be swallowed), the stream fails over at header time, and frames then
// flush through incrementally while the winning backend still holds
// the connection open.
func TestRouterStreamFailover(t *testing.T) {
	release := make(chan struct{})
	dead := NewBackend("b0", failingBackend())
	live := NewBackend("b1", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("work_hours") != "4" {
			t.Errorf("query lost in stream forward: %q", r.URL.RawQuery)
		}
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("X-Plan-Generation", "3")
		h.Set("X-Quote-Stale", "true")
		io.WriteString(w, "event: plan\ndata: {\"generation\":3}\n\n")
		w.(http.Flusher).Flush()
		<-release
		io.WriteString(w, "event: plan\ndata: {\"generation\":4}\n\n")
	}))
	r := &Router{Backends: []*Backend{dead, live}, Policy: NewRoundRobin()}
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	defer close(release)

	resp, err := http.Get(front.URL + "/v1/quotes/stream?work_hours=4&deadline_hours=12")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want failover to 200", resp.StatusCode)
	}
	for k, v := range map[string]string{
		"X-Backend":         "b1",
		"X-Plan-Generation": "3",
		"X-Quote-Stale":     "true",
		"Content-Type":      "text/event-stream",
	} {
		if got := resp.Header.Get(k); got != v {
			t.Errorf("header %s = %q, want %q", k, got, v)
		}
	}

	br := bufio.NewReader(resp.Body)
	readUntil := func(substr string) string {
		var sb strings.Builder
		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(sb.String(), substr) {
			if time.Now().After(deadline) {
				t.Fatalf("frame %q never arrived; got %q", substr, sb.String())
			}
			b, err := br.ReadByte()
			if err != nil {
				t.Fatalf("stream ended before %q: %v (got %q)", substr, err, sb.String())
			}
			sb.WriteByte(b)
		}
		return sb.String()
	}
	// First frame must arrive while b1 is blocked on release — proof the
	// router is not buffering the stream for failover.
	first := readUntil(`{"generation":3}`)
	if strings.Contains(first, "boom") {
		t.Fatalf("failed attempt's body leaked into the stream: %q", first)
	}
	release <- struct{}{}
	readUntil(`{"generation":4}`)

	if got := dead.Failures(); got != 1 {
		t.Errorf("dead backend failures = %d, want 1", got)
	}
	if got := r.Stats().Failovers.Load(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	// The router counts the stream routed once the backend handler
	// returns, which may be just after the client read its last frame.
	waitFor(t, "the stream to be counted routed", func() bool { return r.Stats().Routed.Load() >= 1 })
	if got := r.Stats().Routed.Load(); got != 1 {
		t.Errorf("routed = %d, want 1", got)
	}
}

// TestRouterStreamAffinityCanonical checks that a stream shape routes
// on the canonical request key, not on its query string: parameter
// order, number spelling, explicit defaults, long-poll parameters and
// a resume header all leave it on one backend — the backend the
// equivalent POST body lands on.
func TestRouterStreamAffinityCanonical(t *testing.T) {
	r := &Router{
		Backends: []*Backend{
			NewBackend("b0", echoBackend("b0")),
			NewBackend("b1", echoBackend("b1")),
			NewBackend("b2", echoBackend("b2")),
		},
		Policy: NewAffinity(),
	}
	h := r.Handler()
	want := postQuote(h, `{"work_hours":4,"deadline_hours":12,"max_zones":2}`, "").Header().Get("X-Backend")
	if want == "" {
		t.Fatal("POST body was not routed")
	}

	type variant struct{ query, lastEventID string }
	variants := []variant{
		{query: "work_hours=4&deadline_hours=12&max_zones=2"},
		{query: "max_zones=2&deadline_hours=12&work_hours=4"},
		{query: "work_hours=4.0&deadline_hours=12.00&max_zones=2&top=5"},
	}
	for gen := 1; gen <= 8; gen++ {
		variants = append(variants,
			variant{query: fmt.Sprintf("work_hours=4&deadline_hours=12&max_zones=2&mode=poll&gen=%d&timeout_ms=%d", gen, 10*gen)},
			variant{query: "deadline_hours=12&max_zones=2&work_hours=4", lastEventID: fmt.Sprint(gen)},
		)
	}
	for _, v := range variants {
		req := httptest.NewRequest(http.MethodGet, "/v1/quotes/stream?"+v.query, nil)
		if v.lastEventID != "" {
			req.Header.Set("Last-Event-ID", v.lastEventID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %q: status %d", v.query, rec.Code)
		}
		if got := rec.Header().Get("X-Backend"); got != want {
			t.Errorf("query %q (Last-Event-ID %q) routed to %s, the POST body to %s", v.query, v.lastEventID, got, want)
		}
	}
}
