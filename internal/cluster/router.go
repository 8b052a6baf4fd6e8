package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/quote"
)

// Router fans quote requests across a fleet of backends: admission
// control first, then policy-ordered forwarding with buffered failover
// — a backend answering 5xx (or a proxy answering 502 for a dead
// process) costs a breaker failure and the request silently moves to
// the next backend in the order, so a mid-run backend kill degrades to
// a failover, never to a client-visible error, as long as one backend
// survives. Fields are read at first use and must not change
// afterwards. A Router is safe for concurrent use.
type Router struct {
	// Backends is the fleet, in stable order; names must be unique.
	Backends []*Backend
	// Policy orders backends per request; nil selects round-robin.
	Policy Policy
	// Limiter is per-tenant admission control; nil admits everything.
	Limiter *Limiter
	// Metrics receives router counters; nil selects a private instance
	// (retrievable via Stats).
	Metrics *Metrics
	// MaxAttempts bounds forward attempts per request; 0 tries every
	// backend once.
	MaxAttempts int
	// Retry bounds failovers and hedges across requests (see Budget);
	// nil keeps the historical unbounded failover behavior.
	Retry *Budget
	// HedgeAfter, when positive, launches one speculative attempt at
	// the next backend if the first has not answered within it —
	// deadline-aware (skipped when the request's remaining deadline
	// cannot cover a hedge) and budget-gated like any retry. One-shot
	// quotes only; streams never hedge.
	HedgeAfter time.Duration

	once sync.Once
}

// init lazily fills defaults and registers per-backend metrics.
func (r *Router) init() {
	r.once.Do(func() {
		if r.Policy == nil {
			r.Policy = NewRoundRobin()
		}
		if r.Metrics == nil {
			r.Metrics = NewMetrics()
		}
		r.Metrics.registerBackends(r.Backends)
		r.Metrics.registerTenants(r.Limiter)
	})
}

// Stats returns the router's metrics sink.
func (r *Router) Stats() *Metrics {
	r.init()
	return r.Metrics
}

// Available returns how many backends are currently routable.
func (r *Router) Available() int {
	n := 0
	for _, b := range r.Backends {
		if b.Available() {
			n++
		}
	}
	return n
}

// Handler returns the front door's HTTP surface:
//
//	POST /v1/quote           — routed to a backend (X-Backend names which)
//	GET  /v1/quotes/stream   — streaming plan pushes, failover at
//	                           response-header time, frames flushed through
//	GET  /healthz            — 200 while ≥1 backend is routable, else 503
//	GET  /metrics            — router counters and latency quantiles (text)
//
// Everything else is 404: the router deliberately exposes no backend
// debug surface.
func (r *Router) Handler() http.Handler {
	r.init()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/quote", r.route)
	mux.HandleFunc("GET /v1/quotes/stream", r.routeStream)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		avail := r.Available()
		if avail == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "degraded: 0/%d backends available\n", len(r.Backends))
			return
		}
		fmt.Fprintf(w, "ok: %d/%d backends available\n", avail, len(r.Backends))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.Metrics.Render(w)
	})
	return mux
}

// withdraw asks the retry budget for one failover or hedge token. A
// nil budget admits everything (the historical behavior); a configured
// one counts what it grants and what it refuses.
func (r *Router) withdraw() bool {
	if r.Retry == nil {
		return true
	}
	if r.Retry.Withdraw() {
		r.Metrics.Retries.Inc()
		return true
	}
	r.Metrics.RetrySuppressed.Inc()
	return false
}

// softFailure classifies a captured response as back-pressure rather
// than death: a 429, or a 503 that names its Retry-After. Such a
// backend is alive and shedding — failing over is budget-gated like
// any retry, but costs no breaker failure, and when every attempt
// sheds, the last shed response (Retry-After intact) is flushed to the
// client instead of a synthesized 503.
func softFailure(code int, header http.Header) bool {
	switch code {
	case http.StatusTooManyRequests:
		return true
	case http.StatusServiceUnavailable:
		return header.Get("Retry-After") != ""
	}
	return false
}

// route is the request path: decode → admit → order → forward with
// failover.
func (r *Router) route(w http.ResponseWriter, req *http.Request) {
	m := r.Metrics
	m.Requests.Inc()
	start := time.Now()

	body, err := io.ReadAll(io.LimitReader(req.Body, quote.MaxBodyBytes))
	if err != nil {
		m.BadRequests.Inc()
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: reading body: %v", quote.ErrInvalidRequest, err))
		return
	}
	qreq, err := quote.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		// Reject malformed bodies at the front door: they could never
		// produce a plan, so burning a backend round-trip (and a
		// failover budget) on them only helps an attacker.
		m.BadRequests.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	qreq.Normalize()

	if !r.admit(w, req) {
		return
	}

	span := obs.FromContext(req.Context())
	span.SetAttr("policy", r.Policy.Name())

	order := make([]int, len(r.Backends))
	r.Policy.Order(qreq.AffinityKey(), r.Backends, order)
	maxAttempts := r.MaxAttempts
	if maxAttempts <= 0 || maxAttempts > len(order) {
		maxAttempts = len(order)
	}

	if r.Retry != nil {
		r.Retry.Deposit()
	}
	if r.HedgeAfter > 0 {
		r.routeHedged(w, req, body, order, maxAttempts, start)
		return
	}

	attempts := 0
	var shed *capture
	var shedBackend string
	for _, idx := range order {
		if attempts >= maxAttempts {
			break
		}
		b := r.Backends[idx]
		allowed, probe := b.Breaker.Allow()
		if !allowed {
			continue // ejected and still cooling down
		}
		if attempts > 0 && !r.withdraw() {
			break // retry budget spent: stop generating extra work
		}
		if probe {
			m.Probes.Inc()
		}
		attempts++
		if attempts > 1 {
			m.Failovers.Inc()
		}

		cap := r.forward(req, b, body)
		if softFailure(cap.code, cap.header) {
			// Alive but shedding: try elsewhere at no breaker penalty,
			// keeping the shed response in case everyone sheds.
			shed, shedBackend = cap, b.Name
			continue
		}
		if cap.code >= http.StatusInternalServerError {
			b.failures.Inc()
			if b.Breaker.Failure() {
				m.Ejections.Inc()
			}
			continue // buffered response: nothing reached the client yet
		}
		b.Breaker.Success()
		if probe {
			m.Readmissions.Inc()
		}
		b.served.Inc()
		m.Routed.Inc()
		span.SetAttr("backend", b.Name)
		if attempts > 1 {
			span.SetAttr("failovers", strconv.Itoa(attempts-1))
		}
		r.flush(w, cap, b.Name)
		m.latency.Observe(time.Since(start).Seconds())
		return
	}
	r.finish(w, shed, shedBackend, attempts)
}

// flush writes a captured backend response through to the client.
func (r *Router) flush(w http.ResponseWriter, cap *capture, backend string) {
	h := w.Header()
	for k, vs := range cap.header {
		h[k] = vs
	}
	h.Set("X-Backend", backend)
	w.WriteHeader(cap.code)
	w.Write(cap.body.Bytes())
}

// finish ends a request no backend accepted: the last shed response
// (its Retry-After intact) when the fleet is back-pressuring, else the
// synthesized unroutable 503.
func (r *Router) finish(w http.ResponseWriter, shed *capture, backend string, attempts int) {
	if shed != nil {
		r.Metrics.Routed.Inc()
		r.flush(w, shed, backend)
		return
	}
	r.Metrics.Unroutable.Inc()
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("no backend available (%d/%d routable, %d attempts)", r.Available(), len(r.Backends), attempts))
}

// routeHedged is route's forwarding tail when HedgeAfter is set:
// attempts run as goroutines so a slow first backend can be raced by
// one speculative attempt at the next. The hedge is deadline-aware
// (not launched when the request's remaining deadline cannot cover
// it), budget-gated like any retry, and capped at one per request —
// tail-latency insurance, not a traffic multiplier. Breaker
// bookkeeping happens inside each attempt so an abandoned loser still
// counts, except when the loss is our own cancellation.
func (r *Router) routeHedged(w http.ResponseWriter, req *http.Request, body []byte, order []int, maxAttempts int, start time.Time) {
	m := r.Metrics
	span := obs.FromContext(req.Context())
	type result struct {
		b   *Backend
		cap *capture
	}
	results := make(chan result, len(order)) // losers park here, never on a goroutine

	next := 0
	launch := func(gated bool) bool {
		for next < len(order) {
			b := r.Backends[order[next]]
			next++
			allowed, probe := b.Breaker.Allow()
			if !allowed {
				continue
			}
			if gated && !r.withdraw() {
				return false
			}
			if probe {
				m.Probes.Inc()
			}
			go func() {
				cap := r.forward(req, b, body)
				switch {
				case softFailure(cap.code, cap.header):
					// Shedding: no breaker movement either way.
				case cap.code >= http.StatusInternalServerError:
					// A losing attempt is cancelled through the request
					// context once the winner responds; don't charge
					// the backend for our own cancellation.
					if req.Context().Err() == nil {
						b.failures.Inc()
						if b.Breaker.Failure() {
							m.Ejections.Inc()
						}
					}
				default:
					b.Breaker.Success()
					if probe {
						m.Readmissions.Inc()
					}
				}
				results <- result{b, cap}
			}()
			return true
		}
		return false
	}

	if !launch(false) {
		r.finish(w, nil, "", 0)
		return
	}
	attempts, pending := 1, 1
	var shed *capture
	var shedBackend string

	var hedge <-chan time.Time
	if d, ok := req.Context().Deadline(); !ok || time.Until(d) >= 2*r.HedgeAfter {
		t := time.NewTimer(r.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}

	for pending > 0 {
		select {
		case <-req.Context().Done():
			return // client gone; attempts unwind on the same context
		case <-hedge:
			hedge = nil // at most one hedge per request
			if attempts < maxAttempts && launch(true) {
				attempts++
				pending++
				m.Hedges.Inc()
				m.Failovers.Inc()
			}
		case res := <-results:
			pending--
			cap := res.cap
			if !softFailure(cap.code, cap.header) && cap.code < http.StatusInternalServerError {
				res.b.served.Inc()
				m.Routed.Inc()
				span.SetAttr("backend", res.b.Name)
				if attempts > 1 {
					span.SetAttr("failovers", strconv.Itoa(attempts-1))
				}
				r.flush(w, cap, res.b.Name)
				m.latency.Observe(time.Since(start).Seconds())
				return
			}
			if softFailure(cap.code, cap.header) {
				shed, shedBackend = cap, res.b.Name
			}
			if attempts < maxAttempts && launch(true) {
				attempts++
				pending++
				m.Failovers.Inc()
			}
		}
	}
	r.finish(w, shed, shedBackend, attempts)
}

// routeStream is the streaming request path. A stream cannot ride the
// buffered-failover capture — frames must reach the client while the
// backend still holds the connection — so the failover point moves to
// response-header time: a backend answering 5xx is discarded (its body
// swallowed) and the next backend in the order gets the stream; once a
// 2xx header commits, every subsequent frame is written through and
// flushed immediately, headers (X-Quote-Stale, X-Plan-Generation)
// intact. The query is parsed into the same quote.Request a POST body
// decodes to, so a stream shape routes on the canonical AffinityKey:
// parameter order, number spelling and the mode, gen and timeout_ms
// parameters never move it to another backend.
func (r *Router) routeStream(w http.ResponseWriter, req *http.Request) {
	m := r.Metrics
	m.Requests.Inc()

	qreq, err := quote.ParseQuery(req.URL.Query())
	if err != nil {
		m.BadRequests.Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	qreq.Normalize()

	if !r.admit(w, req) {
		return
	}

	span := obs.FromContext(req.Context())
	span.SetAttr("policy", r.Policy.Name())

	order := make([]int, len(r.Backends))
	r.Policy.Order(qreq.AffinityKey(), r.Backends, order)
	maxAttempts := r.MaxAttempts
	if maxAttempts <= 0 || maxAttempts > len(order) {
		maxAttempts = len(order)
	}

	if r.Retry != nil {
		r.Retry.Deposit()
	}
	attempts := 0
	for _, idx := range order {
		if attempts >= maxAttempts {
			break
		}
		b := r.Backends[idx]
		allowed, probe := b.Breaker.Allow()
		if !allowed {
			continue
		}
		if attempts > 0 && !r.withdraw() {
			break // retry budget spent: stop generating extra work
		}
		if probe {
			m.Probes.Inc()
		}
		attempts++
		if attempts > 1 {
			m.Failovers.Inc()
		}

		sc := &streamCapture{w: w, backend: b.Name, header: make(http.Header)}
		aborted := r.serveStreamAttempt(b, sc, req)
		if aborted && sc.committed() {
			// The backend died mid-frame after bytes reached the
			// client. A committed stream cannot fail over — replaying
			// it elsewhere would duplicate or reorder frames — so
			// charge the breaker and abort the connection; the client's
			// reconnect (with Last-Event-ID) is the recovery path.
			b.failures.Inc()
			if b.Breaker.Failure() {
				m.Ejections.Inc()
			}
			panic(http.ErrAbortHandler)
		}
		if sc.failed || aborted {
			b.failures.Inc()
			if b.Breaker.Failure() {
				m.Ejections.Inc()
			}
			continue // nothing reached the client: next backend
		}
		b.Breaker.Success()
		if probe {
			m.Readmissions.Inc()
		}
		b.served.Inc()
		m.Routed.Inc()
		span.SetAttr("backend", b.Name)
		if attempts > 1 {
			span.SetAttr("failovers", strconv.Itoa(attempts-1))
		}
		sc.commit() // a handler that wrote nothing still owes a header
		return
	}
	m.Unroutable.Inc()
	writeError(w, http.StatusServiceUnavailable,
		fmt.Errorf("no backend available (%d/%d routable, %d attempts)", r.Available(), len(r.Backends), attempts))
}

// serveStreamAttempt forwards one streaming attempt, keeping the
// in-flight gauge and the fleet's health bookkeeping correct when the
// backend (or the reverse proxy under it) aborts mid-request with
// http.ErrAbortHandler — a killed quoted process surfaces exactly that
// way. Any other panic is a programming error and propagates.
func (r *Router) serveStreamAttempt(b *Backend, sc *streamCapture, req *http.Request) (aborted bool) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	defer func() {
		if v := recover(); v != nil {
			if v != http.ErrAbortHandler {
				panic(v)
			}
			aborted = true
		}
	}()
	b.Handler.ServeHTTP(sc, req)
	return false
}

// streamCapture is the streaming analogue of capture: it buffers only
// the response *header*. A 5xx commits nothing (the attempt can fail
// over); anything else writes the header through — with the backend's
// headers copied verbatim — and turns every subsequent Write into an
// immediately flushed client write.
type streamCapture struct {
	w       http.ResponseWriter
	backend string
	header  http.Header
	code    int
	failed  bool
}

// Header implements http.ResponseWriter.
func (c *streamCapture) Header() http.Header { return c.header }

// WriteHeader implements http.ResponseWriter: the failover decision
// point.
func (c *streamCapture) WriteHeader(code int) {
	if c.code != 0 {
		return
	}
	c.code = code
	if code >= http.StatusInternalServerError {
		c.failed = true
		return
	}
	h := c.w.Header()
	for k, vs := range c.header {
		h[k] = vs
	}
	h.Set("X-Backend", c.backend)
	c.w.WriteHeader(code)
}

// commit defaults an untouched response to 200 once the attempt is
// accepted.
func (c *streamCapture) commit() {
	if c.code == 0 {
		c.WriteHeader(http.StatusOK)
	}
}

// committed reports whether the attempt's header (and possibly frames)
// already reached the client, past the failover point.
func (c *streamCapture) committed() bool { return c.code != 0 && !c.failed }

// Write implements http.ResponseWriter, flushing each frame through.
func (c *streamCapture) Write(p []byte) (int, error) {
	if c.code == 0 {
		c.WriteHeader(http.StatusOK)
	}
	if c.failed {
		return len(p), nil // swallow the failed attempt's error body
	}
	n, err := c.w.Write(p)
	c.Flush()
	return n, err
}

// Flush implements http.Flusher so backends detect streaming support.
func (c *streamCapture) Flush() {
	if c.code == 0 || c.failed {
		return
	}
	if fl, ok := c.w.(http.Flusher); ok {
		fl.Flush()
	}
}

// forward replays the buffered request body against one backend and
// captures the full response so a failing attempt can be discarded and
// retried elsewhere without the client seeing partial output.
func (r *Router) forward(req *http.Request, b *Backend, body []byte) *capture {
	span := obs.FromContext(req.Context()).Child("lb.forward")
	span.SetAttr("backend", b.Name)
	defer span.End()

	attempt := req.Clone(req.Context())
	attempt.Body = io.NopCloser(bytes.NewReader(body))
	attempt.ContentLength = int64(len(body))

	cap := newCapture()
	b.inflight.Add(1)
	b.Handler.ServeHTTP(cap, attempt)
	b.inflight.Add(-1)
	if cap.code == 0 {
		cap.code = http.StatusOK
	}
	span.SetAttr("status", strconv.Itoa(cap.code))
	return cap
}

// ProbeLoop actively re-checks ejected backends every interval with
// check (e.g. a GET /healthz round-trip) until ctx is done, so a
// recovered backend rejoins the fleet without waiting for live traffic
// to spend a probe on it. Pacing is still the breaker's: an ejected
// backend is only checked once its cooldown admits a half-open probe.
func (r *Router) ProbeLoop(ctx context.Context, interval time.Duration, check func(context.Context, *Backend) error) {
	r.init()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, b := range r.Backends {
			if b.Available() {
				continue
			}
			allowed, probe := b.Breaker.Allow()
			if !allowed || !probe {
				continue
			}
			r.Metrics.Probes.Inc()
			if err := check(ctx, b); err != nil {
				b.Breaker.Failure()
				continue
			}
			b.Breaker.Success()
			r.Metrics.Readmissions.Inc()
		}
	}
}

// capture is a buffered http.ResponseWriter: the router only flushes a
// captured response to the real client once an attempt is accepted.
type capture struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

// newCapture returns an empty response buffer.
func newCapture() *capture { return &capture{header: make(http.Header)} }

// Header implements http.ResponseWriter.
func (c *capture) Header() http.Header { return c.header }

// WriteHeader implements http.ResponseWriter, keeping the first status.
func (c *capture) WriteHeader(code int) {
	if c.code == 0 {
		c.code = code
	}
}

// Write implements http.ResponseWriter, defaulting the status to 200.
func (c *capture) Write(p []byte) (int, error) {
	if c.code == 0 {
		c.code = http.StatusOK
	}
	return c.body.Write(p)
}

// admit charges the request's X-Tenant against the limiter. When the
// charged bucket is empty it answers 429 naming that bucket — the
// tenant's own when configured, "default" for the shared bucket every
// other tenant draws from — and reports false.
func (r *Router) admit(w http.ResponseWriter, req *http.Request) bool {
	if r.Limiter == nil {
		return true
	}
	bucket, ok := r.Limiter.Charge(req.Header.Get("X-Tenant"))
	if ok {
		return true
	}
	r.Metrics.QuotaRejected.Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, fmt.Errorf("quota exhausted for tenant %q", bucket))
	return false
}

// writeError sends the quote service's JSON error envelope shape.
func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}
