package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/quote"
	"repro/internal/trace"
)

// fleet is the quote serving stack as `quotelb -backends …` in front of
// `quoted -preset high` instances wires it: every backend is a
// quote.Service over a static price history behind its own loopback
// HTTP server, and an affinity-policy cluster.Router with default
// breakers and no admission limiter proxies to them over real
// connections through httpx.Proxy. quotelb's active health probe is not
// started: it only ever visits ejected backends.
type fleet struct {
	url       string // the router's base URL
	services  []*quote.Service
	streamers []*quote.Streamer // one per backend when streaming
	router    *cluster.Router

	cancel context.CancelFunc
	served []chan error
}

// serverGrace bounds the drain when a fleet stops; every client is
// closed by then, so a drain that runs long is a bug worth reporting.
const serverGrace = 2 * time.Second

// newFleet boots n backends over set and the router in front of them.
// With stream set, each backend also serves the push API from a
// quote.Streamer the caller feeds. A non-nil rec traces every layer.
func newFleet(set *trace.Set, n int, stream bool, rec *recorder) (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel}
	tracer := rec.obsTracer()
	var backends []*cluster.Backend
	for i := 0; i < n; i++ {
		var src quote.HistorySource = &quote.StaticSource{Set: set}
		if rec != nil {
			src = tracedSource{rec: rec, src: src}
		}
		metrics := quote.NewMetrics()
		svc := &quote.Service{Source: src, Eval: &core.Evaluator{Trace: tracer}, Metrics: metrics}
		f.services = append(f.services, svc)
		var st *quote.Streamer
		if stream {
			st = &quote.Streamer{
				Eval:    svc.Eval,
				Metrics: metrics.AttachStream(),
				Zones:   set.Zones(),
				Start:   set.Start(),
				Step:    set.Step(),
			}
			f.streamers = append(f.streamers, st)
		}
		var h http.Handler = quote.NewStreamingHandler(svc, st)
		if rec != nil {
			h = rec.serverSpan("quote.handle", wrapProgram(tagProgramSpan(h), tracer, stream))
		}
		base, err := f.serve(ctx, h)
		if err != nil {
			f.stop()
			return nil, err
		}
		u, err := url.Parse(base)
		if err != nil {
			f.stop()
			return nil, err
		}
		var proxy http.Handler = httpx.Proxy(u, nil)
		if rec != nil {
			proxy = rec.proxySpan(proxy)
		}
		backends = append(backends, cluster.NewBackend(base, proxy))
	}
	f.router = &cluster.Router{Backends: backends, Policy: cluster.NewAffinity()}
	var h http.Handler = f.router.Handler()
	if rec != nil {
		h = rec.serverSpan("cluster.route", wrapProgram(h, tracer, stream))
	}
	base, err := f.serve(ctx, h)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.url = base
	return f, nil
}

// wrapProgram adds the program's own request spans (httpx.Wrap) to a
// traced server, except on a streaming fleet: httpx.Wrap's response
// writer does not expose http.Flusher, so behind it the quoted SSE
// handler answers 500 and the router stops flushing frames.
func wrapProgram(h http.Handler, tracer *obs.Tracer, stream bool) http.Handler {
	if stream {
		return h
	}
	return httpx.Wrap(h, tracer)
}

// serve runs h behind the repository's hardened server on a loopback
// port until the fleet stops, returning its base URL.
func (f *fleet) serve(ctx context.Context, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening: %w", err)
	}
	done := make(chan error, 1)
	f.served = append(f.served, done)
	srv := httpx.NewServer("", h)
	go func() { done <- httpx.Serve(ctx, srv, ln, serverGrace) }()
	return "http://" + ln.Addr().String(), nil
}

// stop shuts every server down and waits for each to drain.
func (f *fleet) stop() error {
	f.cancel()
	var errs []error
	for _, done := range f.served {
		if err := <-done; err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// cacheCounts sums plan-cache hits, misses and coalesced requests
// across the fleet.
func (f *fleet) cacheCounts() (hits, misses, coalesced int64) {
	for _, svc := range f.services {
		m := svc.Stats()
		hits += m.CacheHits.Load()
		misses += m.CacheMisses.Load()
		coalesced += m.Coalesced.Load()
	}
	return hits, misses, coalesced
}

// newClient returns the load generator's HTTP client: at most conns
// connections to the router, kept alive between requests.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}
