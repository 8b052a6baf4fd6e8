package quote

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Streaming quotes: instead of answering each request by replaying the
// whole history window, the Streamer subscribes the service to the
// price feed and maintains one core.StreamEvaluator per distinct
// request shape — the ranked table updates in O(delta) per tick, and
// subscribers are pushed plan *changes* (generation + diff) over SSE or
// long-poll. The feed is the clock: when it stalls, nothing recomputes
// and the last published generation keeps serving — the stale-plan
// degraded mode is the streaming fast path, flagged per heartbeat
// rather than per recomputation.

// Streaming defaults and limits.
const (
	// DefaultStreamBacklog is how many trailing ticks the streamer
	// retains for catching up evaluators created by late subscribers.
	DefaultStreamBacklog = 2048
	// DefaultMaxShapes bounds the distinct request shapes (and thus
	// resident evaluators) one streamer maintains.
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
	// Tick is the feed tick (1-based) that produced the change.
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
	// TickErrors counts per-shape tick application failures.
	TickErrors obs.Counter
	// Generations counts plan-table generations published across all
	// shapes.
	Generations obs.Counter
	// CrossCheckMismatches counts streaming cross-check divergences
	// (see core.StreamStats) across all shapes.
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
}

// AttachStream registers the streaming metrics onto the service
// registry and returns them. Call at most once per Metrics.
func (m *Metrics) AttachStream() *StreamMetrics {
	sm := &StreamMetrics{push: obs.NewHistogram(nil)}
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

// streamShape is one request shape's resident state: its incremental
// evaluator, its latest published event and its subscribers.
type streamShape struct {
	req  Request
	se   *core.StreamEvaluator
	last *StreamEvent
	subs map[*StreamSub]struct{}

	mismatches int64 // cross-check mismatches already exported
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
// its resident evaluator.
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
	// Eval supplies tracing and cross-check ranking for the resident
	// evaluators; nil selects a fresh default.
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
	// Backlog bounds the retained catch-up ticks; 0 selects
	// DefaultStreamBacklog.
	Backlog int
	// MaxShapes bounds distinct request shapes; 0 selects
	// DefaultMaxShapes.
	MaxShapes int
	// StaleAfter is the feed-stall threshold; 0 selects
	// DefaultStaleAfter.
	StaleAfter time.Duration
	// CrossCheckEvery and MaxSteps pass through to every resident
	// evaluator (see core.StreamConfig).
	CrossCheckEvery int
	MaxSteps        int
	// Heartbeat is the SSE keepalive cadence; 0 selects
	// DefaultHeartbeat.
	Heartbeat time.Duration
	// Store, when set, receives a crash-recovery checkpoint every
	// CheckpointEvery feed sequence numbers (see snapshot.go).
	Store SnapshotStore
	// CheckpointEvery is the checkpoint cadence in feed sequence
	// numbers; 0 selects DefaultCheckpointEvery.
	CheckpointEvery int

	once    sync.Once
	mu      sync.Mutex
	shapes  map[string]*streamShape
	backlog [][]float64
	dropped uint64 // backlog rows discarded by trimming, ever
	seq     uint64
	lastRow []float64
	lastAt  time.Time
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
// number, prices one sample per zone in column order. Duplicate and
// reordered sequences are dropped; gaps are filled by repeating the
// last row (a silent feed means the price held — spot prices are step
// functions), so every resident evaluator sees exactly one row per
// sequence number and stays deterministic under feed chaos.
func (st *Streamer) Ingest(seq uint64, prices []float64) error {
	st.init()
	if len(prices) != len(st.Zones) {
		return fmt.Errorf("quote: stream tick has %d prices for %d zones", len(prices), len(st.Zones))
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.seq != 0 && seq <= st.seq {
		st.Metrics.DupTicks.Inc()
		return nil
	}
	if st.seq != 0 && seq > st.seq+1 {
		for g := st.seq + 1; g < seq; g++ {
			st.Metrics.GapFills.Inc()
			st.tickLocked(st.lastRow)
		}
	}
	st.seq = seq
	st.lastRow = append(st.lastRow[:0], prices...)
	st.lastAt = time.Now()
	st.tickLocked(st.lastRow)
	if st.Store != nil && seq%uint64(st.CheckpointEvery) == 0 {
		st.checkpointLocked()
	}
	return nil
}

// tickLocked applies one row to the backlog and every resident shape.
func (st *Streamer) tickLocked(row []float64) {
	st.Metrics.Ticks.Inc()
	st.backlog = append(st.backlog, append([]float64(nil), row...))
	if len(st.backlog) > 2*st.Backlog {
		drop := len(st.backlog) - st.Backlog
		st.backlog = append(st.backlog[:0:0], st.backlog[drop:]...)
		st.dropped += uint64(drop)
	}
	for _, sh := range st.shapes {
		st.advanceLocked(sh, row)
	}
}

// advanceLocked ticks one shape's evaluator and publishes a change.
func (st *Streamer) advanceLocked(sh *streamShape, row []float64) {
	upd, err := sh.se.Advance(row)
	if err != nil {
		st.Metrics.TickErrors.Inc()
		return
	}
	if mm := sh.se.Stats().CrossCheckMismatches; mm > sh.mismatches {
		st.Metrics.CrossCheckMismatches.Add(mm - sh.mismatches)
		sh.mismatches = mm
	}
	if !upd.Changed {
		return
	}
	st.Metrics.Generations.Inc()
	ev := sh.event(&upd, false)
	sh.last = ev
	for sub := range sh.subs {
		sub.offer(ev)
	}
}

// event converts one evaluator update into the shape's wire event,
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

// streamConfigLocked is the core evaluator shape of one subscription
// request — shared by Subscribe and crash-recovery Restore so restored
// evaluators resolve identically to freshly subscribed ones.
func (st *Streamer) streamConfigLocked(req Request) core.StreamConfig {
	return core.StreamConfig{
		Zones:           st.Zones,
		Start:           st.Start + int64(st.dropped)*st.Step,
		Step:            st.Step,
		Work:            seconds(req.WorkHours),
		Deadline:        seconds(req.DeadlineHours),
		CheckpointCost:  core.DefaultCheckpointCost,
		RestartCost:     core.DefaultCheckpointCost,
		OnDemandRate:    req.OnDemandPrice,
		MaxZones:        req.MaxZones,
		CrossCheckEvery: st.CrossCheckEvery,
		MaxSteps:        st.MaxSteps,
	}
}

// Subscribe registers for a shape's plan changes, creating (and
// catching up, over the retained backlog) its resident evaluator on
// first use. The shape is a Request with no history window (the feed's
// retention is the window); a non-zero window is ErrInvalidRequest.
// The returned subscription carries the shape's current table as a
// snapshot.
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
		se, err := core.NewStreamEvaluator(st.Eval, st.streamConfigLocked(req))
		if err != nil {
			return nil, err
		}
		sh = &streamShape{req: req, se: se, subs: make(map[*StreamSub]struct{})}
		var last core.StreamUpdate
		for _, row := range st.backlog {
			upd, err := se.Advance(row)
			if err != nil {
				st.Metrics.TickErrors.Inc()
				break
			}
			last = upd
		}
		if last.Generation > 0 {
			sh.last = sh.event(&last, false)
		}
		st.shapes[key] = sh
	}
	sub := &StreamSub{st: st, shape: sh, snapshot: sh.last, ch: make(chan *StreamEvent, 1)}
	sh.subs[sub] = struct{}{}
	st.Metrics.Subscribers.Add(1)
	return sub, nil
}

// unsubscribe removes the subscription; the shape's resident evaluator
// is released with its last subscriber.
func (st *Streamer) unsubscribe(sub *StreamSub) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	delete(sub.shape.subs, sub)
	st.Metrics.Subscribers.Add(-1)
	if len(sub.shape.subs) == 0 {
		delete(st.shapes, sub.shape.req.Key())
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
