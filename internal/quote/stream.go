package quote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Streaming quotes: instead of answering each request by replaying the
// whole history window, the Streamer subscribes the service to the
// price feed. It keeps the feed's window once, in one trace.Tape, and
// steps one core.StreamGrid per distinct grid over it — the resolved
// redundancy bound, since the streamer fixes t_c = t_r, the bids and
// the candidates — with one core.StreamScorer per distinct request
// shape on each grid. A tick appends its row to the tape, steps each
// grid once, then scores and publishes each shape: the ranked tables
// update in O(delta), and subscribers are pushed plan *changes*
// (generation + diff) over SSE or long-poll. One-shot quotes
// (History) and checkpoints read the same tape. The feed is the clock:
// when it stalls, nothing recomputes and the last published generation
// keeps serving, flagged stale per heartbeat rather than per
// recomputation.

// Streaming defaults and limits.
const (
	// DefaultStreamBacklog is the streamer's window bound: past twice
	// this many rows the window keeps its trailing DefaultStreamBacklog.
	DefaultStreamBacklog = 2048
	// DefaultMaxShapes bounds the distinct request shapes (and thus
	// resident scorers) one streamer maintains.
	DefaultMaxShapes = 64
	// DefaultStaleAfter is the wall-clock feed-stall threshold past
	// which pushed heartbeats and stream responses are flagged stale.
	DefaultStaleAfter = 90 * time.Second
	// DefaultHeartbeat is the SSE keepalive cadence.
	DefaultHeartbeat = 15 * time.Second
	// DefaultCheckpointEvery is the tick cadence of streamer
	// checkpoints when a snapshot Store is configured.
	DefaultCheckpointEvery = 64
)

// ErrStreamCapacity reports that the streamer is at its distinct-shape
// bound; the HTTP layer maps it to 503.
var ErrStreamCapacity = errors.New("quote: streaming capacity: too many distinct request shapes")

// StreamRequest is Request under its old stream-path name. It exists
// only because the benchmark harness under bench/ still names it.
type StreamRequest = Request

// StreamEvent is one pushed plan change on the wire.
type StreamEvent struct {
	// Generation is the shape's monotonic plan-table generation.
	Generation uint64 `json:"generation"`
	// Tick is the feed tick that produced the change: the streamer's
	// count of applied rows, gap fills included, from 1. Every shape of
	// one streamer reports the same tick for the same row.
	Tick uint64 `json:"tick"`
	// At is the absolute time of the tick's price sample, in seconds.
	At int64 `json:"at"`
	// BestChanged reports whether rank 0 changed.
	BestChanged bool `json:"best_changed"`
	// ChangedRanks counts table positions whose plan changed.
	ChangedRanks int `json:"changed_ranks"`
	// Evaluated counts the permutations the table ranks.
	Evaluated int `json:"evaluated_permutations"`
	// Stale flags events emitted while the feed is stalled (heartbeats
	// re-announcing the last generation).
	Stale bool `json:"stale,omitempty"`
	// Best is the current least-predicted-cost plan.
	Best *Plan `json:"best,omitempty"`
	// Alternatives are the runner-up plans, best-first.
	Alternatives []Plan `json:"alternatives,omitempty"`

	born time.Time // when the tick published it, for push-latency metrics
}

// StreamMetrics aggregates the streaming pipeline's counters. It is
// appended to a Metrics' registry by AttachStream — never registered by
// NewMetrics, whose exposition a golden test pins byte-for-byte.
type StreamMetrics struct {
	// Ticks counts feed ticks applied (including gap fills).
	Ticks obs.Counter
	// DupTicks counts duplicate-sequence ticks dropped.
	DupTicks obs.Counter
	// GapFills counts missing ticks synthesized by repeating the last
	// row (spot prices are step functions; a silent feed means the
	// price held).
	GapFills obs.Counter
	// TickErrors counts feed rows Ingest refused and per-grid tick
	// application failures.
	TickErrors obs.Counter
	// Generations counts plan-table generations published across all
	// shapes.
	Generations obs.Counter
	// CrossCheckMismatches counts streaming cross-check divergences
	// (see core.StreamStats) across all grids.
	CrossCheckMismatches obs.Counter
	// Subscribers gauges live stream subscriptions.
	Subscribers obs.Gauge
	// ShapeRejects counts subscriptions refused at the shape bound.
	ShapeRejects obs.Counter
	// Checkpoints counts snapshots written to the snapshot store.
	Checkpoints obs.Counter
	// CheckpointErrors counts snapshot-store writes that failed (the
	// stream keeps serving; the previous checkpoint stands).
	CheckpointErrors obs.Counter
	// Restores counts successful crash-recovery restores.
	Restores obs.Counter

	push *obs.Histogram // publish-to-write plan-push latency
	svc  *Metrics       // the registry it is attached to: feed staleness counters
}

// AttachStream registers the streaming metrics onto the service
// registry and returns them. Call at most once per Metrics.
func (m *Metrics) AttachStream() *StreamMetrics {
	sm := &StreamMetrics{push: obs.NewHistogram(nil), svc: m}
	m.reg.Counter("quoted_stream_ticks_total", &sm.Ticks)
	m.reg.Counter("quoted_stream_dup_ticks_total", &sm.DupTicks)
	m.reg.Counter("quoted_stream_gap_fills_total", &sm.GapFills)
	m.reg.Counter("quoted_stream_tick_errors_total", &sm.TickErrors)
	m.reg.Counter("quoted_stream_generations_total", &sm.Generations)
	m.reg.Counter("quoted_stream_crosscheck_mismatches_total", &sm.CrossCheckMismatches)
	m.reg.Gauge("quoted_stream_subscribers", &sm.Subscribers)
	m.reg.Counter("quoted_stream_shape_rejects_total", &sm.ShapeRejects)
	m.reg.Counter("quoted_stream_checkpoints_total", &sm.Checkpoints)
	m.reg.Counter("quoted_stream_checkpoint_errors_total", &sm.CheckpointErrors)
	m.reg.Counter("quoted_stream_restores_total", &sm.Restores)
	m.reg.Histogram("quoted_latency_seconds", "stage", "plan_push", metricQuantiles, sm.push)
	return sm
}

// ObservePush records one publish-to-client-write latency.
func (sm *StreamMetrics) ObservePush(d time.Duration) {
	sm.push.Observe(d.Seconds())
}

// PushLatencyQuantile returns the observed plan-push latency quantile
// in seconds (publish to client write).
func (sm *StreamMetrics) PushLatencyQuantile(q float64) float64 {
	return sm.push.Quantile(q)
}

// streamGrid is one resident grid: the incremental state its shapes
// share.
type streamGrid struct {
	g      *core.StreamGrid
	failed bool // the current tick did not apply

	mismatches int64 // cross-check mismatches already exported
}

// streamShape is one request shape's resident state: its grid, its
// scorer, its latest published event and its subscribers.
type streamShape struct {
	req  Request
	grid *streamGrid
	sc   *core.StreamScorer
	last *StreamEvent
	subs map[*StreamSub]struct{}
}

// StreamSub is one subscription: a latest-wins event slot the tick
// pipeline publishes into. Slow consumers never block a tick — they
// coalesce to the newest event.
type StreamSub struct {
	st       *Streamer
	shape    *streamShape
	snapshot *StreamEvent // table state at subscribe time, if any
	ch       chan *StreamEvent
	closed   bool
}

// Events returns the subscription's event channel; each receive yields
// the newest unseen plan change.
func (s *StreamSub) Events() <-chan *StreamEvent { return s.ch }

// Snapshot returns the shape's latest event as of subscribe time (nil
// before the feed's first table).
func (s *StreamSub) Snapshot() *StreamEvent { return s.snapshot }

// Close ends the subscription; the last subscriber of a shape releases
// its scorer, and the last shape of a grid releases the grid.
func (s *StreamSub) Close() { s.st.unsubscribe(s) }

// offer publishes latest-wins into the slot. Called with the streamer
// lock held, so this goroutine is the only sender and the post-drain
// send cannot block.
func (s *StreamSub) offer(ev *StreamEvent) {
	for {
		select {
		case s.ch <- ev:
			return
		default:
			select {
			case <-s.ch:
			default:
			}
		}
	}
}

// Streamer is the subscription manager: it ingests the price feed once
// and fans plan changes out to every subscriber of every request
// shape. Fields are read at first use and must not change afterwards;
// the zero value plus Zones is ready. Safe for concurrent use.
type Streamer struct {
	// Eval supplies tracing and cross-check estimates for the resident
	// grids; nil selects a fresh default.
	Eval *core.Evaluator
	// Metrics receives the streaming counters; nil selects a private
	// instance.
	Metrics *StreamMetrics
	// Zones names the feed's zones in tick column order.
	Zones []string
	// Start is the absolute time of feed sequence 1's sample.
	Start int64
	// Step is the feed's tick interval in seconds; 0 selects
	// trace.DefaultStep.
	Step int64
	// Backlog bounds the feed window every grid, one-shot History and
	// checkpoint reads: past 2·Backlog rows it keeps the trailing
	// Backlog. It also bounds a gap fill. 0 selects
	// DefaultStreamBacklog.
	Backlog int
	// MaxShapes bounds distinct request shapes; 0 selects
	// DefaultMaxShapes.
	MaxShapes int
	// StaleAfter is the feed-stall threshold; 0 selects
	// DefaultStaleAfter.
	StaleAfter time.Duration
	// CrossCheckEvery passes through to every resident grid (see
	// core.StreamConfig).
	CrossCheckEvery int
	// Heartbeat is the SSE keepalive cadence; 0 selects
	// DefaultHeartbeat.
	Heartbeat time.Duration
	// Store, when set, receives a crash-recovery checkpoint every
	// CheckpointEvery feed sequence numbers (see snapshot.go).
	Store SnapshotStore
	// CheckpointEvery is the checkpoint cadence in feed sequence
	// numbers; 0 selects DefaultCheckpointEvery.
	CheckpointEvery int

	once   sync.Once
	mu     sync.Mutex
	shapes map[string]*streamShape
	grids  map[int]*streamGrid // by resolved MaxZones (gridKey)
	// tape is the feed window, its only copy: one row per sequence
	// number, ending at seq's. nil without Zones.
	tape    *trace.Tape
	ticks   uint64 // rows applied, gap fills included: every event's Tick
	seq     uint64
	lastAt  time.Time
	tripped bool // this stall already counted a watchdog trip
}

// init lazily fills defaults.
func (st *Streamer) init() {
	st.once.Do(func() {
		if st.Eval == nil {
			st.Eval = core.NewEvaluator()
		}
		if st.Metrics == nil {
			st.Metrics = NewMetrics().AttachStream()
		}
		if st.Step == 0 {
			st.Step = trace.DefaultStep
		}
		if st.Backlog <= 0 {
			st.Backlog = DefaultStreamBacklog
		}
		if st.MaxShapes <= 0 {
			st.MaxShapes = DefaultMaxShapes
		}
		if st.StaleAfter <= 0 {
			st.StaleAfter = DefaultStaleAfter
		}
		if st.Heartbeat <= 0 {
			st.Heartbeat = DefaultHeartbeat
		}
		if st.CheckpointEvery <= 0 {
			st.CheckpointEvery = DefaultCheckpointEvery
		}
		st.shapes = make(map[string]*streamShape)
		st.grids = make(map[int]*streamGrid)
		st.tape, _ = trace.NewTape(st.Zones, st.Start, st.Step) // nil without zones; checkTick then refuses every tick
	})
}

// Stale reports whether the feed has stalled: no tick yet, or none
// within StaleAfter. Stream responses and heartbeats surface it; the
// last published generation keeps serving regardless.
func (st *Streamer) Stale() bool {
	st.init()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.staleLocked()
}

func (st *Streamer) staleLocked() bool {
	return st.lastAt.IsZero() || time.Since(st.lastAt) > st.StaleAfter
}

// Ingest applies one feed tick: seq is the feed's 1-based sequence
// number, whose sample is at Start + (seq-1)·Step, prices one sample
// per zone in column order. The feed, and so the window, starts at its
// first tick's seq. Duplicate and reordered sequences are dropped; gaps
// are filled by repeating the last row (a silent feed means the price
// held — spot prices are step functions), so the window holds exactly
// one row per sequence number and stays deterministic under feed
// chaos. A gap fills at most Backlog slots: on a longer jump the feed
// restarts at the first slot it fills, as a feed that began there
// would, so however far a sequence number jumps, the tick costs at
// most Backlog gap fills. A tick numbered 0, or with the wrong arity
// or a price trace.ValidPrice rejects, is refused before it moves the
// feed position and counted in TickErrors; the next accepted tick
// gap-fills its slot.
func (st *Streamer) Ingest(seq uint64, prices []float64) error {
	st.init()
	if err := st.checkTick(seq, prices); err != nil {
		st.Metrics.TickErrors.Inc()
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.seq != 0 && seq <= st.seq {
		st.Metrics.DupTicks.Inc()
		return nil
	}
	if st.seq != 0 && seq > st.seq+1 {
		win := st.tape.Set() // holds seq's row once the feed began
		held := win.PricesAt(win.End() - st.Step)
		from := st.seq + 1
		if seq-from > uint64(st.Backlog) {
			from = seq - uint64(st.Backlog)
			st.restartLocked(from)
		}
		for g := from; g < seq; g++ {
			st.Metrics.GapFills.Inc()
			st.tickLocked(held)
		}
	}
	if st.seq == 0 && st.tape.Len() == 0 {
		st.restartLocked(seq) // the feed starts at seq: so does the window
	}
	st.seq = seq
	st.lastAt = time.Now()
	st.tripped = false
	st.tickLocked(prices)
	if st.Store != nil && seq%uint64(st.CheckpointEvery) == 0 {
		st.checkpointLocked()
	}
	return nil
}

// restartLocked moves the feed to begin at sequence first, as a
// streamer whose feed started there would stand: the window restarts
// empty at first's sample time, so the sequence numbers before first
// count as dropped, and every grid rebuilds over the new window on its
// next step. Shapes, subscribers, generations and the tick count carry
// over.
func (st *Streamer) restartLocked(first uint64) {
	st.tape, _ = trace.NewTape(st.Zones, st.Start+int64(first-1)*st.Step, st.Step) // init's zones and step
}

// checkTick is Ingest's tick check: a 1-based sequence number and one
// sample per zone, each a valid price.
func (st *Streamer) checkTick(seq uint64, prices []float64) error {
	if seq == 0 {
		return errors.New("quote: stream tick sequence numbers start at 1")
	}
	if st.tape == nil {
		return errors.New("quote: streamer has no zones")
	}
	if len(prices) != len(st.Zones) {
		return fmt.Errorf("quote: stream tick has %d prices for %d zones", len(prices), len(st.Zones))
	}
	for i, p := range prices {
		if !trace.ValidPrice(p) {
			return fmt.Errorf("quote: stream tick price %d (%q) is %g, not a finite non-negative price", i, st.Zones[i], p)
		}
	}
	return nil
}

// RowFeed is the method of livesched.Feed that Pump reads — the next
// row, in the streamer's zone order, or io.EOF — so any livesched feed
// drives the streamer.
type RowFeed interface {
	Next(ctx context.Context) ([]float64, error)
}

// Pump ingests feed's rows as sequence numbers first, first+1, … until
// ctx is done or the feed ends, returning ctx's error or io.EOF. A
// feed error does not stop the pump: it reads on (wrap a flaky feed in
// livesched.RetryFeed, whose backoff paces the reads), and the silence
// shows as Stale. A row Ingest refuses still takes its sequence number,
// so the next row gap-fills its slot.
func (st *Streamer) Pump(ctx context.Context, feed RowFeed, first uint64) error {
	for seq := first; ; seq++ {
		row, err := feed.Next(ctx)
		for err != nil && err != io.EOF && ctx.Err() == nil {
			row, err = feed.Next(ctx)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			return err // io.EOF
		}
		_ = st.Ingest(seq, row) // a refused row is counted in TickErrors
	}
}

// tickLocked applies one checked row to the window, trims the window
// past 2·Backlog rows to its trailing Backlog, steps every resident grid
// once over it, then publishes every shape whose table changed.
func (st *Streamer) tickLocked(row []float64) {
	st.Metrics.Ticks.Inc()
	if err := st.tape.Append(row); err != nil {
		st.Metrics.TickErrors.Inc() // unreachable: checkTick checked the row
		return
	}
	st.tape.Trim(st.Backlog)
	st.ticks++
	win := st.tape.Set()
	for _, gr := range st.grids {
		gr.failed = gr.g.Advance(win, st.ticks) != nil
		if gr.failed {
			st.Metrics.TickErrors.Inc()
			continue
		}
		if mm := gr.g.Stats().CrossCheckMismatches; mm > gr.mismatches {
			st.Metrics.CrossCheckMismatches.Add(mm - gr.mismatches)
			gr.mismatches = mm
		}
	}
	for _, sh := range st.shapes {
		if upd := sh.sc.Update(); !sh.grid.failed && upd.Changed {
			st.Metrics.Generations.Inc()
			ev := sh.event(&upd, false)
			sh.last = ev
			for sub := range sh.subs {
				sub.offer(ev)
			}
		}
	}
}

// event converts one scorer update into the shape's wire event,
// truncated to the shape's Top.
func (sh *streamShape) event(upd *core.StreamUpdate, stale bool) *StreamEvent {
	wire := wirePlans(upd.Plans, sh.req.Top)
	ev := &StreamEvent{
		Generation:   upd.Generation,
		Tick:         upd.Tick,
		At:           upd.At,
		BestChanged:  upd.BestChanged,
		ChangedRanks: upd.ChangedRanks,
		Evaluated:    len(upd.Plans),
		Stale:        stale,
		born:         time.Now(),
	}
	if len(wire) > 0 {
		ev.Best = &wire[0]
		ev.Alternatives = wire[1:]
	}
	return ev
}

// streamConfigLocked is the core stream shape of one subscription
// request — shared by Subscribe and crash-recovery Restore so restored
// grids and scorers resolve identically to freshly subscribed ones.
func (st *Streamer) streamConfigLocked(req Request) core.StreamConfig {
	return core.StreamConfig{
		Zones:           st.Zones,
		Step:            st.Step,
		Work:            seconds(req.WorkHours),
		Deadline:        seconds(req.DeadlineHours),
		CheckpointCost:  core.DefaultCheckpointCost,
		RestartCost:     core.DefaultCheckpointCost,
		OnDemandRate:    req.OnDemandPrice,
		MaxZones:        req.MaxZones,
		CrossCheckEvery: st.CrossCheckEvery,
	}
}

// gridKey is the grid a normalized request scores on. The streamer
// fixes t_c = t_r, the bids and the candidates, so the grid reduces to
// the redundancy bound as core resolves it: clamped to the feed's
// zones.
func (st *Streamer) gridKey(req Request) int {
	return min(req.MaxZones, len(st.Zones))
}

// attachLocked adds a shape's scorer to its grid in grids, creating the
// grid when none is resident, and reports whether the grid is new. A
// shape joining a resident grid scores the grid's current window: its
// first table is generation 1.
func (st *Streamer) attachLocked(req Request, grids map[int]*streamGrid) (*streamShape, bool, error) {
	cfg := st.streamConfigLocked(req)
	gr := grids[st.gridKey(req)]
	fresh := gr == nil
	if fresh {
		g, err := core.NewStreamGrid(st.Eval, cfg)
		if err != nil {
			return nil, false, err
		}
		gr = &streamGrid{g: g}
	}
	sc, err := gr.g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
	if err != nil {
		return nil, false, err
	}
	grids[st.gridKey(req)] = gr
	return &streamShape{req: req, grid: gr, sc: sc, subs: make(map[*StreamSub]struct{})}, fresh, nil
}

// Subscribe registers for a shape's plan changes, creating its scorer
// on first use (and its grid, stepped through the window, when none is
// resident). The shape is a Request with no history window (the
// streamer's window is the window); a non-zero window is
// ErrInvalidRequest. The returned subscription carries the shape's
// current table as a snapshot.
func (st *Streamer) Subscribe(req Request) (*StreamSub, error) {
	st.init()
	req.Normalize()
	if err := req.validateStream(); err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	key := req.Key()
	sh := st.shapes[key]
	if sh == nil {
		if len(st.shapes) >= st.MaxShapes {
			st.Metrics.ShapeRejects.Inc()
			return nil, ErrStreamCapacity
		}
		var fresh bool
		var err error
		if sh, fresh, err = st.attachLocked(req, st.grids); err != nil {
			return nil, err
		}
		if fresh {
			st.catchUpLocked(sh.grid)
		}
		if upd := sh.sc.Update(); upd.Generation > 0 {
			sh.last = sh.event(&upd, false)
		}
		st.shapes[key] = sh
	}
	sub := &StreamSub{st: st, shape: sh, snapshot: sh.last, ch: make(chan *StreamEvent, 1)}
	sh.subs[sub] = struct{}{}
	st.Metrics.Subscribers.Add(1)
	return sub, nil
}

// catchUpLocked steps a new grid through the window one row at a time,
// each prefix under the feed tick of its last row, as a grid resident
// since the window's first row would have been stepped; its first
// shape, attached beforehand, so publishes the generations of a
// private replay of the window.
func (st *Streamer) catchUpLocked(gr *streamGrid) {
	win := st.tape.Set()
	n := st.tape.Len()
	for k := 1; k <= n; k++ {
		prefix := win.Slice(win.Start(), win.Start()+int64(k)*st.Step)
		if err := gr.g.Advance(prefix, st.ticks-uint64(n-k)); err != nil {
			st.Metrics.TickErrors.Inc()
			return
		}
	}
}

// unsubscribe removes the subscription; the shape's scorer is released
// with its last subscriber, and the grid with its last shape.
func (st *Streamer) unsubscribe(sub *StreamSub) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	sh := sub.shape
	delete(sh.subs, sub)
	st.Metrics.Subscribers.Add(-1)
	if len(sh.subs) > 0 {
		return
	}
	delete(st.shapes, sh.req.Key())
	if sh.grid.g.Detach(sh.sc) == 0 {
		delete(st.grids, st.gridKey(sh.req))
	}
}

// Generation returns a subscription shape's current plan generation
// (0 before the first table).
func (st *Streamer) Generation(sub *StreamSub) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if sub.shape.last == nil {
		return 0
	}
	return sub.shape.last.Generation
}

// Latest returns the subscription shape's newest published event (nil
// before the first table).
func (st *Streamer) Latest(sub *StreamSub) *StreamEvent {
	st.mu.Lock()
	defer st.mu.Unlock()
	return sub.shape.last
}
