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
//
// The built-in load generator measures the service end-to-end over a
// real listener and prints throughput and latency quantiles:
//
//	quoted -selfbench 200 -bench-duration 5s
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
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
	selfbench := flag.Int("selfbench", 0, "run the load generator with this many concurrent clients instead of serving")
	benchDur := flag.Duration("bench-duration", 5*time.Second, "load generator run time")
	stream := flag.Bool("stream", false, "serve GET /v1/quotes/stream, feeding the streamer by replaying the synthetic preset as a live tick feed (with -selfbench: run the subscriber load generator instead)")
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
	var streamMetrics *quote.StreamMetrics
	if *stream {
		if presetSet == nil {
			log.Fatal("-stream needs a synthetic -preset feed; -feed is one-shot only")
		}
		streamMetrics = metrics.AttachStream()
		streamer = &quote.Streamer{
			Eval:            svc.Eval,
			Metrics:         streamMetrics,
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
	handler := http.Handler(mux)

	if *selfbench > 0 {
		var err error
		if *stream {
			err = runStreamBench(streamer, streamMetrics, handler, presetSet, *selfbench, *benchDur, *streamRate)
		} else {
			err = runSelfbench(svc, handler, *selfbench, *benchDur)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if streamer != nil {
		go replayFeed(ctx, streamer, presetSet, *streamRate)
		log.Printf("streaming plans at http://%s/v1/quotes/stream (%.3g ticks/s)", *addr, *streamRate)
	}
	srv := httpx.NewServer(*addr, handler)
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

// benchRequests is the request mix the load generator cycles through:
// enough distinct shapes to exercise evaluation, coalescing and the
// cache rather than a single hot key.
func benchRequests() [][]byte {
	var out [][]byte
	for _, work := range []float64{4, 8, 12, 16, 20, 24} {
		for _, slack := range []float64{1.2, 1.5} {
			body := fmt.Sprintf(`{"work_hours":%g,"deadline_hours":%g,"history_window":6,"max_zones":2}`,
				work, work*slack)
			out = append(out, []byte(body))
		}
	}
	return out
}

// runSelfbench boots the service on an ephemeral local listener, fires
// clients concurrent request loops at it for dur, and prints
// throughput, latency quantiles and cache statistics. Latencies go
// through the same obs.Histogram machinery the cluster simulator's
// capacity curves use, so single-instance p50/p99 and fleet p50/p99 in
// BENCH_cluster.json are directly comparable numbers.
func runSelfbench(svc *quote.Service, handler http.Handler, clients int, dur time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := httpx.NewServer("", handler)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- httpx.Serve(ctx, srv, ln, httpx.DefaultGrace) }()
	base := "http://" + ln.Addr().String()

	transport := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients}
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}
	reqs := benchRequests()

	var (
		latency = obs.NewHistogram(nil)
		total   atomic.Int64
		errs    atomic.Int64
	)
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				body := reqs[(c+i)%len(reqs)]
				start := time.Now()
				resp, err := client.Post(base+"/v1/quote", "application/json", bytes.NewReader(body))
				if err != nil {
					errs.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
				}
				_, _ = new(bytes.Buffer).ReadFrom(resp.Body)
				resp.Body.Close()
				latency.Observe(time.Since(start).Seconds())
				total.Add(1)
			}
		}(c)
	}
	wg.Wait()
	cancel()
	if err := <-serveDone; err != nil {
		return err
	}

	m := svc.Stats()
	fmt.Printf("selfbench: %d clients × %s\n", clients, dur)
	fmt.Printf("  requests      %d (%.0f req/s), errors %d\n",
		total.Load(), float64(total.Load())/dur.Seconds(), errs.Load())
	fmt.Printf("  latency       p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
		latency.Quantile(0.50)*1e3, latency.Quantile(0.95)*1e3, latency.Quantile(0.99)*1e3)
	fmt.Printf("  cache         hits %d  misses %d  coalesced %d\n",
		m.CacheHits.Load(), m.CacheMisses.Load(), m.Coalesced.Load())
	if errs.Load() > 0 {
		return fmt.Errorf("selfbench: %d failed requests", errs.Load())
	}
	return nil
}

// streamBenchShapes is the subscription mix the streaming load
// generator spreads its subscribers across: a handful of distinct
// shapes, so fan-out within a shape and multiple resident evaluators
// are both exercised.
func streamBenchShapes() []string {
	var out []string
	for _, work := range []float64{4, 8, 12, 16} {
		out = append(out, fmt.Sprintf("work_hours=%g&deadline_hours=%g&max_zones=2&top=3", work, 3*work))
	}
	return out
}

// runStreamBench boots the streaming service on an ephemeral listener,
// attaches subscribers SSE clients, replays the preset feed at rate
// ticks/second for dur, and prints the tick/publish pipeline's
// throughput and plan-push latency quantiles (publish to client
// write), measured by the same histogram /metrics exports.
func runStreamBench(st *quote.Streamer, sm *quote.StreamMetrics, handler http.Handler, set *trace.Set, subscribers int, dur time.Duration, rate float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := httpx.NewServer("", handler)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- httpx.Serve(ctx, srv, ln, httpx.DefaultGrace) }()
	base := "http://" + ln.Addr().String()

	clientCtx, stopClients := context.WithCancel(ctx)
	shapes := streamBenchShapes()
	transport := &http.Transport{MaxIdleConns: subscribers, MaxIdleConnsPerHost: subscribers}
	client := &http.Client{Transport: transport}
	var (
		events atomic.Int64
		errs   atomic.Int64
		wg     sync.WaitGroup
	)
	wg.Add(subscribers)
	for c := 0; c < subscribers; c++ {
		go func(c int) {
			defer wg.Done()
			url := base + "/v1/quotes/stream?" + shapes[c%len(shapes)]
			req, err := http.NewRequestWithContext(clientCtx, http.MethodGet, url, nil)
			if err != nil {
				errs.Add(1)
				return
			}
			resp, err := client.Do(req)
			if err != nil {
				errs.Add(1)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs.Add(1)
				return
			}
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "event: plan") {
					events.Add(1)
				}
			}
		}(c)
	}

	// Feed ticks for the benchmark window, then stop the clients.
	feedCtx, stopFeed := context.WithTimeout(ctx, dur)
	replayFeed(feedCtx, st, set, rate)
	stopFeed()
	time.Sleep(100 * time.Millisecond) // let the last pushes drain
	stopClients()
	wg.Wait()
	cancel()
	if err := <-serveDone; err != nil {
		return err
	}

	ticks := st.Metrics.Ticks.Load()
	gens := st.Metrics.Generations.Load()
	fmt.Printf("streambench: %d subscribers × %s @ %.3g ticks/s\n", subscribers, dur, rate)
	fmt.Printf("  feed          %d ticks (%.1f/s), %d plan generations\n",
		ticks, float64(ticks)/dur.Seconds(), gens)
	fmt.Printf("  pushes        %d plan events delivered (%.1f/subscriber), errors %d\n",
		events.Load(), float64(events.Load())/float64(subscribers), errs.Load())
	fmt.Printf("  push latency  p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
		sm.PushLatencyQuantile(0.50)*1e3, sm.PushLatencyQuantile(0.95)*1e3, sm.PushLatencyQuantile(0.99)*1e3)
	if errs.Load() > 0 {
		return fmt.Errorf("streambench: %d failed subscriptions", errs.Load())
	}
	return nil
}
