// Command quoted serves least-cost execution plans over HTTP: clients
// POST a job description (work hours, deadline, on-demand price,
// history window) to /v1/quote and receive the ranked (bid, zones,
// policy) permutation table computed by replaying the evaluation core
// over recent spot price history.
//
// History comes from a pricefeedd-style endpoint (-feed URL) or a
// built-in synthetic generator (-preset/-seed). The server is hardened
// (header/read/idle timeouts), drains gracefully on SIGINT/SIGTERM, and
// exposes /metrics and /healthz. With -trace-spans N every request is
// traced end-to-end (request → history fetch → evaluation) into a ring
// of N spans served at /debug/trace; -pprof mounts net/http/pprof under
// /debug/pprof/.
//
// Usage:
//
//	quoted -addr :8081 -preset high -seed 7
//	quoted -addr :8081 -feed http://localhost:8080
//	curl -s localhost:8081/v1/quote -d '{"work_hours":20,"deadline_hours":30,"history_window":12}'
package main

import (
	"context"
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/httpx"
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
	feed := flag.String("feed", "", "pricefeedd-style history endpoint (overrides -preset)")
	feedTTL := flag.Duration("feed-ttl", 10*time.Second, "how long a fetched history is reused")
	preset := flag.String("preset", "high", "synthetic trace preset: low, high, low-spike, year")
	seed := flag.Uint64("seed", 1, "synthetic generator seed")
	workers := flag.Int("workers", 0, "evaluation workers per request (0: GOMAXPROCS)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent evaluations admitted (0: 2×GOMAXPROCS)")
	cacheSize := flag.Int("cache", 1024, "plan cache entries")
	breakerFails := flag.Int("breaker-failures", quote.DefaultBreakerThreshold, "consecutive history failures that open the circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", quote.DefaultBreakerCooldown, "open-breaker period before a half-open probe")
	stream := flag.Bool("stream", false, "serve GET /v1/quotes/stream, feeding the streamer by replaying the synthetic preset as a live tick feed")
	streamRate := flag.Float64("stream-rate", 8, "replayed feed ticks per second in -stream mode")
	snapshot := flag.String("snapshot", "", "crash-recovery snapshot file for -stream mode: checkpoints are written there and, on startup, the stream resumes from it instead of replaying from scratch")
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

	metrics := quote.NewMetrics()
	var presetSet *trace.Set
	var source quote.HistorySource
	if *feed != "" {
		// Share the service's metrics sink so feed degradation (stale
		// serves, staleness watchdog trips) shows up on /metrics.
		source = &quote.FeedSource{Client: &spotapi.Client{BaseURL: *feed}, TTL: *feedTTL, Stats: metrics}
	} else {
		var set *trace.Set
		switch *preset {
		case "low":
			set = tracegen.LowVolatility(*seed)
		case "high":
			set = tracegen.HighVolatility(*seed)
		case "low-spike":
			set = tracegen.LowVolatilityWithMegaSpike(*seed)
		case "year":
			set = tracegen.Year(*seed)
		default:
			log.Fatalf("unknown preset %q", *preset)
		}
		presetSet = set
		source = &quote.StaticSource{Set: set}
	}

	// Decision recording: every /v1/quote ranking emits one decision
	// point (the chosen plan plus all ranked rivals) into a bounded ring
	// served at /debug/decisions, optionally mirrored to an append-only
	// JSON-lines file for offline counterfactual replay.
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
	}

	svc := &quote.Service{
		Source:    source,
		Eval:      &core.Evaluator{Workers: *workers, Trace: tracer},
		Gate:      pool.NewGate(*maxInflight),
		CacheSize: *cacheSize,
		Metrics:   metrics,
		Breaker:   &quote.Breaker{Threshold: *breakerFails, Cooldown: *breakerCooldown},
	}
	// Streaming mode: mount the push API and replay the synthetic
	// preset as a live tick feed. (A live -feed endpoint has no tick
	// stream to subscribe to; it stays one-shot only.)
	var streamer *quote.Streamer
	if *stream {
		if presetSet == nil {
			log.Fatal("-stream needs a synthetic -preset feed; -feed is one-shot only")
		}
		streamer = &quote.Streamer{
			Eval:            svc.Eval,
			Metrics:         metrics.AttachStream(),
			Zones:           presetSet.Zones(),
			Start:           presetSet.Start(),
			Step:            presetSet.Step(),
			Heartbeat:       *heartbeat,
			CheckpointEvery: *checkpointEvery,
		}
		if *snapshot != "" {
			store := &quote.FileStore{Path: *snapshot}
			streamer.Store = store
			// A snapshot that cannot be loaded or restored (corrupt,
			// foreign, or written in an older format) is refused whole
			// and the stream starts cold; the next checkpoint replaces
			// it. Failing hard here would crash-loop the backend.
			snap, err := store.Load()
			if err == nil && snap != nil {
				err = streamer.Restore(snap)
			}
			switch {
			case err != nil:
				log.Printf("refusing snapshot %s, starting the stream cold: %v", *snapshot, err)
			case snap != nil:
				log.Printf("resumed stream from %s at feed seq %d (%d shapes)", *snapshot, snap.Seq, len(snap.Shapes))
			}
		}
	}
	// The API handler is wrapped with request tracing; the debug surface
	// (/debug/trace, /debug/pprof/) mounts beside it, outside the traced
	// path.
	mux := http.NewServeMux()
	mux.Handle("/", httpx.Wrap(quote.NewStreamingHandler(svc, streamer), tracer))
	obs.Mount(mux, tracer, *pprofOn)
	if dlog != nil {
		svc.Eval.Sink = dlog
		mux.Handle("GET /debug/decisions", dlog.Handler())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if streamer != nil {
		go replayFeed(ctx, streamer, presetSet, *streamRate)
		log.Printf("streaming plans at http://%s/v1/quotes/stream (%.3g ticks/s)", *addr, *streamRate)
	}
	srv := httpx.NewServer(*addr, mux)
	log.Printf("serving plans at http://%s/v1/quote (metrics at /metrics)", *addr)
	if err := httpx.ListenAndServe(ctx, srv, httpx.DefaultGrace); err != nil {
		log.Fatal(err)
	}
}

// replayFeed drives the streamer with the preset trace as if it were a
// live feed: one row per tick at rate ticks/second, cycling when the
// trace runs out. Sequence numbers are the feed's own, so the
// streamer's dedup/gap handling is exercised identically to a real
// feed. A streamer restored from a -snapshot resumes at its next
// sequence number — the restart catches up instead of replaying.
func replayFeed(ctx context.Context, st *quote.Streamer, set *trace.Set, rate float64) {
	if rate <= 0 {
		rate = 8
	}
	t := time.NewTicker(time.Duration(float64(time.Second) / rate))
	defer t.Stop()
	n := set.Series[0].Len()
	for seq := st.Seq() + 1; ; seq++ {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		i := int((seq - 1) % uint64(n))
		if err := st.Ingest(seq, set.PricesAt(set.Start()+int64(i)*set.Step())); err != nil {
			log.Printf("stream feed: %v", err)
			return
		}
	}
}
