package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/quote"
	"repro/internal/trace"
)

// Tracing for the traced run. The benchmark records its own spans
// around each call into a layer — client, router handler, each
// Backend.Handler, the quoted handler, the history source, the feed's
// Ingest and the suite's experiment drivers — and collects the
// program's existing spans through one obs.Tracer handed to the public
// fields that take one (Evaluator.Trace, httpx.Wrap). Nothing is added
// inside the program. Spans stay in memory until the run ends.

// Headers carrying a request's benchmark ids across HTTP hops: the
// request id and the id of the span the next hop's span hangs under.
const (
	headerReq  = "X-Bench-Req"
	headerSpan = "X-Bench-Span"
)

// span is one benchmark span. Times are nanoseconds since the
// recorder's epoch on the monotonic clock.
type span struct {
	ID     uint64
	Parent uint64
	Req    uint64
	Name   string
	Start  int64
	End    int64
}

// dur returns the span's duration in nanoseconds.
func (s span) dur() int64 { return s.End - s.Start }

// recorder holds a traced run's spans. A nil recorder records nothing,
// so untraced code paths need no checks.
type recorder struct {
	epoch  time.Time
	tracer *obs.Tracer

	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// newRecorder returns a recorder whose program tracer holds capacity
// spans before it starts overwriting (which the run reports as drops).
func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), tracer: obs.NewTracer(capacity), spans: make([]span, 0, capacity)}
}

// obsTracer returns the tracer handed to the program (nil when
// untraced).
func (r *recorder) obsTracer() *obs.Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// now returns the time since the epoch.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// newID allocates a span id.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records one finished span.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the benchmark's spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// benchIDs is the request id and current span id a request context
// carries between the benchmark's wrappers.
type benchIDs struct{ req, span uint64 }

type benchKey struct{}

// idsFrom returns the ids a context carries (zero when none).
func idsFrom(ctx context.Context) benchIDs {
	ids, _ := ctx.Value(benchKey{}).(benchIDs)
	return ids
}

// serverSpan wraps the handler an HTTP server runs with a span whose
// request id and parent arrive in the X-Bench-* headers; the span's own
// id travels on in the request context.
func (r *recorder) serverSpan(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		req, _ := strconv.ParseUint(q.Header.Get(headerReq), 10, 64)
		parent, _ := strconv.ParseUint(q.Header.Get(headerSpan), 10, 64)
		id, start := r.newID(), r.now()
		h.ServeHTTP(w, q.WithContext(context.WithValue(q.Context(), benchKey{}, benchIDs{req, id})))
		r.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: r.now()})
	})
}

// proxySpan wraps a router Backend.Handler. The router hands it a clone
// of the client request, so the span id it writes into the outgoing
// headers reaches the backend without touching the client's request.
func (r *recorder) proxySpan(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		ids := idsFrom(q.Context())
		id, start := r.newID(), r.now()
		q.Header.Set(headerSpan, strconv.FormatUint(id, 10))
		h.ServeHTTP(w, q)
		r.add(span{ID: id, Parent: ids.span, Req: ids.req, Name: "httpx.proxy", Start: start, End: r.now()})
	})
}

// tagProgramSpan sits inside httpx.Wrap and labels the program's request
// span with the benchmark ids, linking the program's spans to requests.
func tagProgramSpan(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		if ids := idsFrom(q.Context()); ids.req != 0 {
			sp := obs.FromContext(q.Context())
			sp.SetAttr("bench_req", strconv.FormatUint(ids.req, 10))
			sp.SetAttr("bench_span", strconv.FormatUint(ids.span, 10))
		}
		h.ServeHTTP(w, q)
	})
}

// tracedSource times every history fetch as a quote.history span under
// the quoted handler span of the request asking for it.
type tracedSource struct {
	rec *recorder
	src quote.HistorySource
}

// History implements quote.HistorySource.
func (s tracedSource) History(ctx context.Context, window int64) (*trace.Set, string, error) {
	ids := idsFrom(ctx)
	id, start := s.rec.newID(), s.rec.now()
	set, digest, err := s.src.History(ctx, window)
	s.rec.add(span{ID: id, Parent: ids.span, Req: ids.req, Name: "quote.history", Start: start, End: s.rec.now()})
	return set, digest, err
}

// programSpans returns the program's spans with times moved onto the
// recorder's epoch, plus how many the tracer's ring overwrote.
func (r *recorder) programSpans() ([]obs.Span, uint64) {
	spans := r.tracer.Spans()
	base := r.epoch.UnixNano()
	for i := range spans {
		if spans[i].Clock == obs.WallClock {
			spans[i].Start -= base
			spans[i].End -= base
		}
	}
	return spans, r.tracer.Total() - uint64(len(spans))
}

// attr returns a span attribute's value.
func attr(s *obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// programReqs maps each program trace that a benchmark request caused
// to that request's id, through the ids tagProgramSpan stamped on the
// trace's root.
func programReqs(spans []obs.Span) map[uint64]uint64 {
	out := map[uint64]uint64{}
	for i := range spans {
		if v := attr(&spans[i], "bench_req"); v != "" {
			if req, err := strconv.ParseUint(v, 10, 64); err == nil {
				out[spans[i].Trace] = req
			}
		}
	}
	return out
}

// spanLine is one line of spans.jsonl. Benchmark and program spans keep
// their own id spaces, told apart by src.
type spanLine struct {
	Src    string     `json:"src"`
	ID     uint64     `json:"id"`
	Parent uint64     `json:"parent,omitempty"`
	Req    uint64     `json:"req,omitempty"`
	Name   string     `json:"name"`
	Start  int64      `json:"start_ns"`
	End    int64      `json:"end_ns"`
	Attrs  []obs.Attr `json:"attrs,omitempty"`
}

// writeTrace writes spans.jsonl (every span) and layers.json (the run's
// per-layer metrics and self-time table) into dir.
func writeTrace(dir string, bench []span, program []obs.Span, res *Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for _, s := range bench {
		if err := enc.Encode(spanLine{Src: "bench", ID: s.ID, Parent: s.Parent, Req: s.Req, Name: s.Name, Start: s.Start, End: s.End}); err != nil {
			return err
		}
	}
	reqs := programReqs(program)
	for i := range program {
		s := &program[i]
		if err := enc.Encode(spanLine{Src: "program", ID: s.ID, Parent: s.Parent, Req: reqs[s.Trace], Name: s.Name, Start: s.Start, End: s.End, Attrs: s.Attrs}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	layers, err := json.MarshalIndent(struct {
		Workload  string     `json:"workload"`
		Seed      uint64     `json:"seed"`
		Layers    []Metric   `json:"layers"`
		Breakdown []LayerRow `json:"breakdown"`
	}{res.Workload, res.Seed, res.Layers, res.Breakdown}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(layers, '\n'), 0o644)
}

// breakdown turns per-operation layer durations (ns) into the self-time
// table. total is the end-to-end duration of the same operations; each
// row's share is its mean over the mean end-to-end time.
func breakdown(total []float64, layers []string, samples map[string][]float64) []LayerRow {
	tm := mean(total)
	var rows []LayerRow
	for _, name := range layers {
		v := samples[name]
		if len(v) == 0 {
			continue
		}
		row := LayerRow{Layer: name, P50Ms: pct(sorted(v), 0.5) / 1e6, MeanMs: mean(v) / 1e6, N: len(v)}
		if tm > 0 {
			row.Share = mean(v) / tm
		}
		rows = append(rows, row)
	}
	return rows
}

// durationsByName collects the durations (ns) of the program's spans
// with the given name.
func durationsByName(spans []obs.Span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, float64(spans[i].End-spans[i].Start))
		}
	}
	return out
}

// addSweepLayers derives the evaluator metrics from the program's
// eval.rank and eval.sweep spans.
func addSweepLayers(res *Result, program []obs.Span) {
	ranks := sorted(durationsByName(program, "eval.rank"))
	res.layer("core.rank_ms_p50", pct(ranks, 0.5)/1e6, len(ranks))
	var sweeps, specs []float64
	batched := 0
	for i := range program {
		s := &program[i]
		if s.Name != "eval.sweep" {
			continue
		}
		sweeps = append(sweeps, float64(s.End-s.Start))
		if n, err := strconv.Atoi(attr(s, "specs")); err == nil {
			specs = append(specs, float64(n))
		}
		if attr(s, "batched") == "true" {
			batched++
		}
	}
	res.layer("core.sweep_ms_p50", pct(sorted(sweeps), 0.5)/1e6, len(sweeps))
	res.layer("core.sweep_specs", pct(sorted(specs), 0.5), len(specs))
	ratio := 0.0
	if len(sweeps) > 0 {
		ratio = float64(batched) / float64(len(sweeps))
	}
	res.layer("core.sweep_batched_ratio", ratio, len(sweeps))
}

// fillLayers adds every catalog per-layer metric the run did not
// measure as 0 with n=0, so each traced result names all of them.
func fillLayers(res *Result) {
	have := map[string]bool{}
	for _, m := range res.Layers {
		have[m.Name] = true
	}
	for _, d := range perLayer {
		if !have[d.name] {
			res.layer(d.name, 0, 0)
		}
	}
}

// finishTrace ends a traced run: analyze turns the spans into the
// workload's per-layer metrics, the rest of the catalog reads 0, and
// the spans and layers are written under the run's trace directory.
func finishTrace(cfg config, res *Result, rec *recorder, analyze func([]span, []obs.Span)) error {
	bench := rec.snapshot()
	program, dropped := rec.programSpans()
	analyze(bench, program)
	res.layer("bench.spans_dropped", float64(dropped), int(rec.tracer.Total()))
	res.check("no program spans dropped", errDrops(dropped))
	fillLayers(res)
	return writeTrace(cfg.traceDir, bench, program, res)
}

// traceCapacity sizes the program tracer for a run that records about
// perOp spans for each of ops operations, with room to spare.
func traceCapacity(ops float64, perOp int) int {
	return max(1<<16, int(ops*float64(perOp)*1.5))
}

// errDrops reports spans the tracer's ring overwrote.
func errDrops(n uint64) error {
	if n == 0 {
		return nil
	}
	return fmt.Errorf("%d program spans overwritten: raise the tracer capacity", n)
}
