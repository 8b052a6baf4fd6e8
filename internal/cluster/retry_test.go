package cluster

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leak"
)

// TestBudgetTokens pins the token arithmetic: the pool starts full,
// withdrawals drain it whole tokens at a time, deposits refill it at
// Ratio per request capped at Burst.
func TestBudgetTokens(t *testing.T) {
	b := &Budget{Ratio: 0.5, Burst: 2}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("fresh pool %g, want full at 2", got)
	}
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("full pool refused withdrawals")
	}
	if b.Withdraw() {
		t.Fatal("empty pool granted a withdrawal")
	}
	b.Deposit() // 0.5: still under one token
	if b.Withdraw() {
		t.Fatal("half a token granted a withdrawal")
	}
	b.Deposit() // 1.0
	if !b.Withdraw() {
		t.Fatal("replenished pool refused a withdrawal")
	}
	for i := 0; i < 10; i++ {
		b.Deposit()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("pool %g after heavy deposits, want capped at Burst 2", got)
	}
}

// TestRouterRetryBudgetBounds pins the storm bound: with every backend
// hard-failing (thresholds high enough that nothing ejects), failovers
// consume the budget and, once it is spent, requests stop fanning out
// — the extra work per request collapses to one attempt.
func TestRouterRetryBudgetBounds(t *testing.T) {
	mk := func(name string) *Backend {
		b := NewBackend(name, failingBackend())
		b.Breaker = &Breaker{Threshold: 1000, Cooldown: time.Hour}
		return b
	}
	fleet := []*Backend{mk("b0"), mk("b1"), mk("b2")}
	r := &Router{
		Backends: fleet,
		Policy:   NewRoundRobin(),
		Retry:    &Budget{Ratio: 0.001, Burst: 2}, // 2 retries, near-zero refill
	}
	h := r.Handler()

	// First request: 1 free attempt + 2 budgeted failovers, then 503.
	if rec := postQuote(h, validBody, ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-failing fleet returned %d, want 503", rec.Code)
	}
	m := r.Stats()
	if got := m.Retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2 (the whole budget)", got)
	}
	total := fleet[0].Failures() + fleet[1].Failures() + fleet[2].Failures()
	if total != 3 {
		t.Fatalf("first request burned %d attempts, want 3", total)
	}

	// Budget spent: subsequent requests get exactly one attempt each.
	for i := 0; i < 4; i++ {
		if rec := postQuote(h, validBody, ""); rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("request %d returned %d, want 503", i, rec.Code)
		}
	}
	if got := fleet[0].Failures() + fleet[1].Failures() + fleet[2].Failures(); got != total+4 {
		t.Fatalf("4 post-budget requests burned %d attempts, want 4 — retry storm not bounded", got-total)
	}
	if m.RetrySuppressed.Load() == 0 {
		t.Fatal("retry_suppressed metric never incremented")
	}
}

// TestRouterShedPassThrough pins the back-pressure path: a backend
// answering 429 (or 503 with Retry-After) is shedding, not dead — the
// router fails over without charging its breaker, and when the whole
// fleet sheds, the client receives the backend's own response with its
// Retry-After intact rather than a synthesized 503.
func TestRouterShedPassThrough(t *testing.T) {
	shedding := func(code int) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(code)
			io.WriteString(w, `{"error":"overloaded"}`)
		})
	}
	for _, code := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable} {
		r := &Router{
			Backends: []*Backend{
				NewBackend("b0", shedding(code)),
				NewBackend("b1", shedding(code)),
			},
			Policy: NewRoundRobin(),
		}
		rec := postQuote(r.Handler(), validBody, "")
		if rec.Code != code {
			t.Fatalf("shedding fleet returned %d, want %d passed through", rec.Code, code)
		}
		if got := rec.Header().Get("Retry-After"); got != "7" {
			t.Fatalf("Retry-After %q did not survive the shed pass-through", got)
		}
		for _, b := range r.Backends {
			if !b.Available() {
				t.Fatalf("%s ejected by back-pressure; shedding must not charge the breaker", b.Name)
			}
			if b.Failures() != 0 {
				t.Fatalf("%s failures = %d on shed responses", b.Name, b.Failures())
			}
		}
		if got := r.Stats().Unroutable.Load(); got != 0 {
			t.Fatalf("unroutable = %d for a shedding fleet, want 0", got)
		}
	}

	// A shedding backend plus a healthy one: the failover serves.
	r := &Router{
		Backends: []*Backend{
			NewBackend("b0", shedding(http.StatusTooManyRequests)),
			NewBackend("b1", echoBackend("b1")),
		},
		Policy: NewRoundRobin(),
	}
	rec := postQuote(r.Handler(), validBody, "")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Backend") != "b1" {
		t.Fatalf("shed failover: %d from %q, want 200 from b1", rec.Code, rec.Header().Get("X-Backend"))
	}
}

// TestRouterHedge pins the speculative path: when the first backend
// sits on a request past HedgeAfter, the router races a second one and
// the client gets the fast answer; the hedge consumes retry budget.
func TestRouterHedge(t *testing.T) {
	defer leak.CheckT(t, leak.Baseline())
	release := make(chan struct{})
	var slowDone atomic.Bool
	slow := NewBackend("b0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
		slowDone.Store(true)
		io.WriteString(w, "slow")
	}))
	fast := NewBackend("b1", echoBackend("b1"))
	r := &Router{
		Backends:   []*Backend{slow, fast},
		Policy:     NewRoundRobin(), // b0 first for the first request
		Retry:      &Budget{Ratio: 0.5, Burst: 4},
		HedgeAfter: 30 * time.Millisecond,
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	defer close(release)

	start := time.Now()
	resp, err := http.Post(srv.URL+"/v1/quote", "application/json", strings.NewReader(validBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Backend"); got != "b1" {
		t.Fatalf("served by %q, want the hedge winner b1", got)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged request took %v; the slow backend was awaited", elapsed)
	}
	m := r.Stats()
	if m.Hedges.Load() != 1 {
		t.Fatalf("hedges = %d, want 1", m.Hedges.Load())
	}
	if m.Retries.Load() != 1 {
		t.Fatalf("retries = %d, want 1 (the hedge token)", m.Retries.Load())
	}
	// The abandoned attempt unwinds via context cancellation without
	// charging the slow backend's breaker.
	waitFor(t, "slow attempt unwind", func() bool { return slowDone.Load() })
	if !slow.Available() {
		t.Fatal("slow backend ejected by a lost hedge")
	}
}

// TestRouterHedgeDeadlineAware pins that a request whose remaining
// deadline cannot cover a hedge never launches one.
func TestRouterHedgeDeadlineAware(t *testing.T) {
	r := &Router{
		Backends:   []*Backend{NewBackend("b0", echoBackend("b0")), NewBackend("b1", echoBackend("b1"))},
		Policy:     NewRoundRobin(),
		HedgeAfter: 50 * time.Millisecond,
	}
	h := r.Handler()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/quote", strings.NewReader(validBody)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := r.Stats().Hedges.Load(); got != 0 {
		t.Fatalf("hedges = %d under a tight deadline, want 0", got)
	}
}

// TestRouterStreamCommittedDeath pins the failover boundary (the
// satellite case): once a stream has committed — header and frames on
// the wire — a backend death mid-frame must NOT fail over to another
// backend (frames would duplicate); the connection aborts, the corpse
// is charged, and the client's reconnect is the recovery path.
func TestRouterStreamCommittedDeath(t *testing.T) {
	var secondTouched atomic.Bool
	dying := NewBackend("b0", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "id: 3\nevent: plan\ndata: {\"generation\":3}\n\n")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // killed mid-stream, next frame never comes
	}))
	dying.Breaker = &Breaker{Threshold: 1, Cooldown: time.Hour}
	standby := NewBackend("b1", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		secondTouched.Store(true)
	}))
	r := &Router{Backends: []*Backend{dying, standby}, Policy: NewRoundRobin()}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/quotes/stream?work_hours=4&deadline_hours=12")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want the committed 200", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var got strings.Builder
	for {
		b, err := br.ReadByte()
		if err != nil {
			break // the abort: EOF or reset, after the committed frame
		}
		got.WriteByte(b)
	}
	if !strings.Contains(got.String(), `{"generation":3}`) {
		t.Fatalf("committed frame lost: %q", got.String())
	}
	if secondTouched.Load() {
		t.Fatal("committed stream failed over to a second backend")
	}
	if dying.Available() {
		t.Fatal("mid-stream death did not charge the backend's breaker")
	}
	if got := dying.Failures(); got != 1 {
		t.Fatalf("dying backend failures = %d, want 1", got)
	}
	waitFor(t, "in-flight gauge drain", func() bool {
		return dying.InFlight() == 0 && standby.InFlight() == 0
	})
}

// TestRouterStreamPreCommitAbort pins the complement: an abort BEFORE
// the header commits (the proxy died connecting) is an ordinary
// failover — the next backend serves and the client never notices.
func TestRouterStreamPreCommitAbort(t *testing.T) {
	dying := NewBackend("b0", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler) // death before any byte commits
	}))
	live := NewBackend("b1", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "id: 1\nevent: plan\ndata: {\"generation\":1}\n\n")
	}))
	r := &Router{Backends: []*Backend{dying, live}, Policy: NewRoundRobin()}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/quotes/stream?work_hours=4&deadline_hours=12")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Backend") != "b1" {
		t.Fatalf("pre-commit abort: %d from %q, want 200 from b1", resp.StatusCode, resp.Header.Get("X-Backend"))
	}
	if !strings.Contains(string(body), `{"generation":1}`) {
		t.Fatalf("failover stream body %q", body)
	}
	if got := dying.Failures(); got != 1 {
		t.Fatalf("dying backend failures = %d, want 1", got)
	}
	if got := r.Stats().Failovers.Load(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
}

// waitFor polls a condition with a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
