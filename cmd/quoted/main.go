// Command quoted serves least-cost execution plans over HTTP: clients
// POST a job description (work hours, deadline, on-demand price,
// history window) to /v1/quote and receive the ranked (bid, zones,
// policy) permutation table computed by replaying the evaluation core
// over recent spot price history.
//
// History comes from a built-in synthetic generator (-preset/-seed) or
// a pricefeedd-style endpoint (-feed URL) read as a live price feed.
// One pump, quote.Streamer.Pump, feeds the streamer: -feed quotes over
// its retained tape once the first row arrives; -stream mounts GET
// /v1/quotes/stream, replaying the preset at -stream-rate without
// -feed; -snapshot checkpoints and resumes it. The server is hardened
// (header/read/idle timeouts), drains gracefully on SIGINT/SIGTERM, and
// exposes /metrics and /healthz. With -trace-spans N every request is
// traced end-to-end (request → history fetch → evaluation) into a ring
// of N spans served at /debug/trace; -pprof mounts net/http/pprof under
// /debug/pprof/.
//
// Usage:
//
//	quoted -addr :8081 -preset high -seed 7
//	quoted -addr :8081 -feed http://localhost:8080 -stream
//	curl -s localhost:8081/v1/quote -d '{"work_hours":20,"deadline_hours":30,"history_window":12}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/httpx"
	"repro/internal/livesched"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/quote"
	"repro/internal/spotapi"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quoted: ")

	addr := flag.String("addr", ":8081", "listen address")
	feedURL := flag.String("feed", "", "pricefeedd-style history endpoint, read as a live price feed (overrides -preset)")
	preset := flag.String("preset", "high", "synthetic trace preset: low, high, low-spike, year")
	seed := flag.Uint64("seed", 1, "synthetic generator seed")
	maxInflight := flag.Int("max-inflight", 0, "concurrent evaluations admitted (0: 2×GOMAXPROCS)")
	cacheSize := flag.Int("cache", 1024, "plan cache entries")
	stream := flag.Bool("stream", false, "serve GET /v1/quotes/stream; without -feed, replay the synthetic preset as a live tick feed")
	streamRate := 8.0
	flag.Func("stream-rate", "replayed preset `ticks` per second in -stream mode, in (0, 1e9) (default 8)", func(s string) (err error) {
		streamRate, err = parseRate(s)
		return err
	})
	snapshot := flag.String("snapshot", "", "crash-recovery snapshot file for the streamer (-stream or -feed): checkpoints are written there and, on startup, the stream resumes from it instead of replaying from scratch")
	checkpointEvery := flag.Int("checkpoint-every", quote.DefaultCheckpointEvery, "feed ticks between -snapshot checkpoints")
	heartbeat := flag.Duration("stream-heartbeat", quote.DefaultHeartbeat, "SSE keepalive cadence")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	traceSpans := flag.Int("trace-spans", 0, "trace request/evaluation spans into a ring of this size, served at /debug/trace (0: disabled)")
	decisions := flag.Int("decisions", 0, "record ranking decisions into a ring of this size, served at /debug/decisions (0: disabled)")
	decisionLog := flag.String("decision-log", "", "also append every recorded decision to this JSON-lines file (implies -decisions)")
	flag.Parse()

	var tracer *obs.Tracer
	if *traceSpans > 0 {
		tracer = obs.NewTracer(*traceSpans)
	}

	// Decision recording: every /v1/quote ranking emits one decision
	// point (the chosen plan plus all ranked rivals) into a bounded ring
	// served at /debug/decisions, optionally mirrored to an append-only
	// JSON-lines file for offline counterfactual replay.
	eval := &core.Evaluator{Trace: tracer}
	var dlog *decision.Log
	if *decisions > 0 || *decisionLog != "" {
		var w io.Writer
		if *decisionLog != "" {
			f, err := os.OpenFile(*decisionLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("opening decision log: %v", err)
			}
			defer f.Close()
			w = f
		}
		dlog = decision.NewLog(*decisions, w)
		eval.Sink = dlog
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	metrics := quote.NewMetrics()
	newStreamer := func(zones []string, start, step int64, first uint64) *quote.Streamer {
		st := &quote.Streamer{Eval: eval, Metrics: metrics.AttachStream(), Zones: zones, Start: start, Step: step,
			Heartbeat: *heartbeat, CheckpointEvery: *checkpointEvery}
		if *snapshot != "" {
			resume(st, *snapshot, first)
		}
		return st
	}
	// One feed drives the streamer: the live endpoint, or the preset
	// replayed when -stream asks for a stream.
	var source quote.HistorySource
	var streamer *quote.Streamer
	var pump func()
	if *feedURL != "" {
		if streamer, pump = openLiveFeed(ctx, newStreamer, *feedURL); streamer == nil {
			return // interrupted while waiting for the feed
		}
		source = streamer
	} else {
		set, err := tracegen.Preset(*preset, *seed)
		if err != nil {
			log.Fatal(err)
		}
		source = &quote.StaticSource{Set: set}
		if *stream {
			streamer, pump = openPresetFeed(ctx, newStreamer, set, time.Duration(float64(time.Second)/streamRate))
		}
	}
	if !*stream {
		streamer = nil // the stream is not served, only pumped
	}

	svc := &quote.Service{
		Source:    source,
		Eval:      eval,
		Gate:      pool.NewGate(*maxInflight),
		CacheSize: *cacheSize,
		Metrics:   metrics,
	}
	// The API handler is wrapped with request tracing; the debug surface
	// (/debug/trace, /debug/pprof/) mounts beside it, outside the traced
	// path.
	mux := http.NewServeMux()
	mux.Handle("/", httpx.Wrap(quote.NewStreamingHandler(svc, streamer), tracer))
	obs.Mount(mux, tracer, *pprofOn)
	if dlog != nil {
		mux.Handle("GET /debug/decisions", dlog.Handler())
	}

	if pump != nil {
		go pump()
	}
	if streamer != nil {
		log.Printf("streaming plans at http://%s/v1/quotes/stream", *addr)
	}
	srv := httpx.NewServer(*addr, mux)
	log.Printf("serving plans at http://%s/v1/quote (metrics at /metrics)", *addr)
	if err := httpx.ListenAndServe(ctx, srv, httpx.DefaultGrace); err != nil {
		log.Fatal(err)
	}
}

// newStreamerFunc builds the streamer for a feed's geometry; first is
// the sequence number of the feed's first row, or 0 for a feed that
// resumes wherever a checkpoint left it.
type newStreamerFunc func(zones []string, start, step int64, first uint64) *quote.Streamer

// resume restores a fresh streamer from the snapshot file and makes the
// file its checkpoint store. A snapshot that cannot be loaded or
// restored (corrupt, foreign, written in an older format, or so far
// behind the feed's first row that nothing it retains would survive
// the gap) is refused whole and the stream starts cold; the next
// checkpoint replaces it. Failing hard here would crash-loop the
// backend.
func resume(st *quote.Streamer, path string, first uint64) {
	store := &quote.FileStore{Path: path}
	st.Store = store
	snap, err := store.Load()
	if err == nil && snap != nil && first > snap.Seq+quote.DefaultStreamBacklog {
		err = fmt.Errorf("the feed starts at seq %d, over %d ticks past the checkpoint's %d", first, quote.DefaultStreamBacklog, snap.Seq)
	}
	if err == nil && snap != nil {
		err = st.Restore(snap)
	}
	switch {
	case err != nil:
		log.Printf("refusing snapshot %s, starting the stream cold: %v", path, err)
	case snap != nil:
		log.Printf("resumed stream from %s at feed seq %d (%d shapes)", path, snap.Seq, len(snap.Shapes))
	}
}

// openLiveFeed reads url through HTTPFeed behind RetryFeed, waits for
// the feed's first row, and returns the streamer it feeds with the pump
// that keeps feeding it (nil if ctx ends first). Sequence k is the
// sample k-1 steps past the Unix epoch, so a restored checkpoint takes
// the rows after it however far the upstream's window has slid: rows it
// holds drop as duplicates, rows missed while down gap-fill.
func openLiveFeed(ctx context.Context, newStreamer newStreamerFunc, url string) (*quote.Streamer, func()) {
	inner := &livesched.HTTPFeed{Client: &spotapi.Client{BaseURL: url}}
	feed := &livesched.RetryFeed{Inner: inner}
	row, err := feed.Next(ctx)
	for ; err != nil; row, err = feed.Next(ctx) {
		if ctx.Err() != nil {
			return nil, nil
		}
		log.Printf("waiting for the feed's first row: %v", err)
	}
	start, step := inner.Start().Unix(), inner.Step()
	first := uint64(start/step) + 1
	st := newStreamer(inner.Zones(), start%step, step, first)
	_ = st.Ingest(first, row) // a refused row is counted in TickErrors
	log.Printf("reading the price feed at %s from %s", url, inner.Start().Format(time.RFC3339))
	return st, func() { st.Pump(ctx, feed, first+1) }
}

// openPresetFeed returns the streamer that replays set as a live feed,
// one row per interval, with the pump that replays it. The preset
// cycles from row 0 each time it runs out; a streamer restored from a
// snapshot resumes at Seq()+1, on row Seq() mod n, without replaying.
func openPresetFeed(ctx context.Context, newStreamer newStreamerFunc, set *trace.Set, interval time.Duration) (*quote.Streamer, func()) {
	st := newStreamer(set.Zones(), set.Start(), set.Step(), 0)
	return st, func() {
		n := uint64(set.Series[0].Len())
		from := set.Start() + int64(st.Seq()%n)*set.Step()
		for {
			feed := &livesched.TraceFeed{Set: set.Slice(from, set.End()), Interval: interval}
			if err := st.Pump(ctx, feed, st.Seq()+1); !errors.Is(err, io.EOF) {
				return
			}
			from = set.Start()
		}
	}
}

// parseRate parses -stream-rate, refusing NaN, ±Inf, zero, negative
// rates and rates of 1e9/s or more — every rate whose tick interval is
// not a positive duration — so a bad rate is a usage error.
func parseRate(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && !(v > 0 && v < 1e9) {
		err = fmt.Errorf("%g ticks/s is outside (0, 1e9)", v)
	}
	return v, err
}
