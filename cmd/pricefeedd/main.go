// Command pricefeedd serves a synthetic spot price history over HTTP in
// the AWS DescribeSpotPriceHistory document format, for driving the
// live scheduler (cmd/livesim) or any spotapi.Client consumer without
// cloud access. It shuts down gracefully on SIGINT/SIGTERM. With
// -trace-spans N requests are traced into a ring served at
// /debug/trace; -pprof mounts net/http/pprof under /debug/pprof/.
//
// Usage:
//
//	pricefeedd -addr :8080 -preset high -seed 7
//	curl 'http://localhost:8080/spot-price-history?start=2013-03-01T00:00:00Z'
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/spotapi"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pricefeedd: ")

	addr := flag.String("addr", ":8080", "listen address")
	preset := flag.String("preset", "high", "trace preset: low, high, low-spike, year")
	seed := flag.Uint64("seed", 1, "generator seed")
	epochStr := flag.String("epoch", "2013-03-01T00:00:00Z", "wall-clock time of the first sample (RFC 3339)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceSpans := flag.Int("trace-spans", 0, "trace request spans into a ring of this size, served at /debug/trace (0: disabled)")
	flag.Parse()

	set, err := tracegen.Preset(*preset, *seed)
	if err != nil {
		log.Fatal(err)
	}
	epoch, err := time.Parse(time.RFC3339, *epochStr)
	if err != nil {
		log.Fatalf("bad -epoch: %v", err)
	}

	var tracer *obs.Tracer
	if *traceSpans > 0 {
		tracer = obs.NewTracer(*traceSpans)
	}
	mux := http.NewServeMux()
	mux.Handle("/", httpx.Wrap(spotapi.Handler(set, epoch), tracer))
	obs.Mount(mux, tracer, *pprofOn)

	srv := httpx.NewServer(*addr, mux)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	log.Printf("serving %s preset (%d zones × %d samples) at http://%s/spot-price-history",
		*preset, set.NumZones(), set.Series[0].Len(), *addr)
	if err := httpx.ListenAndServe(ctx, srv, httpx.DefaultGrace); err != nil {
		log.Fatal(err)
	}
}
