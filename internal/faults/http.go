package faults

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// ErrInjectedTimeout is the error an injected HTTP timeout surfaces,
// wrapping context.DeadlineExceeded so callers' timeout handling
// (errors.Is) treats it exactly like a real one.
var ErrInjectedTimeout = fmt.Errorf("faults: injected timeout: %w", context.DeadlineExceeded)

// RoundTripper wraps an http.RoundTripper with injected 5xx responses
// and timeouts, keyed to the request count. It is safe for concurrent
// use; under concurrency the request numbering follows arrival order.
type RoundTripper struct {
	// Next is the wrapped transport; nil selects
	// http.DefaultTransport.
	Next http.RoundTripper
	// Scenario is the fault schedule; HTTPError and HTTPTimeout plans
	// apply, keyed by request index.
	Scenario Scenario
	// Status is the synthesized error status; 0 selects 503.
	Status int
	// Sleep is overridable for tests; nil selects the shared Sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnFault, when set, observes every fault as it fires.
	OnFault func(Observation)

	n atomic.Int64
}

// RoundTrip implements http.RoundTripper.
func (rt *RoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	i := rt.n.Add(1) - 1
	if p := rt.Scenario.active(HTTPTimeout, i); p != nil {
		if rt.OnFault != nil {
			rt.OnFault(Observation{Kind: HTTPTimeout, Index: i})
		}
		sleep := rt.Sleep
		if sleep == nil {
			sleep = Sleep
		}
		if err := sleep(req.Context(), p.Delay); err != nil {
			return nil, err
		}
		return nil, ErrInjectedTimeout
	}
	if p := rt.Scenario.active(HTTPError, i); p != nil {
		if rt.OnFault != nil {
			rt.OnFault(Observation{Kind: HTTPError, Index: i})
		}
		status := rt.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		body := fmt.Sprintf("faults: injected %d\n", status)
		return &http.Response{
			StatusCode: status,
			Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
			Proto:      req.Proto,
			ProtoMajor: req.ProtoMajor,
			ProtoMinor: req.ProtoMinor,
			Header:     http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
			Body:       io.NopCloser(bytes.NewBufferString(body)),
			Request:    req,
		}, nil
	}
	next := rt.Next
	if next == nil {
		next = http.DefaultTransport
	}
	return next.RoundTrip(req)
}
