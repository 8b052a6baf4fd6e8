package chaos

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/leak"
	"repro/internal/quote"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Fleet-scale chaos: where Soak subjects one scheduler to feed and HTTP
// faults, FleetSoak subjects the whole serving topology — quotelb over
// N in-process quoted instances, each with its own streamer, snapshot
// store and price-feed delivery — to seeded fleet faults (backend
// kill/restart, LB↔backend partition, slow-loris subscribers, feed
// gaps) while clients keep quoting and streaming through the front
// door. Per scenario it asserts the fleet's failure contract:
//
//   - zero client-visible errors: every routed quote and stream
//     subscription succeeds, the bounded retry budget absorbing every
//     fault window (Unroutable stays 0);
//   - monotonic client-visible plan generations across disconnects and
//     failovers, via Last-Event-ID / ?gen=N resume floors — even when
//     the failover target's evaluator is behind;
//   - crash recovery resumes from the snapshot store: a killed-and-
//     restarted backend catches up only the ticks since its last
//     checkpoint (bounded by checkpoint cadence + outage length),
//     never replaying the full feed history;
//   - no goroutine leaks scenario to scenario;
//   - determinism: each scenario runs twice and the backend-state
//     digests must match byte for byte. Client-side observations
//     (which backend served, reconnect counts) are asserted but not
//     digested — round-robin interleaving with the live SSE client is
//     scheduling-dependent; backend feed state is not.
type FleetConfig struct {
	// Seed is the base seed; scenario i derives from Seed+i.
	Seed uint64
	// Scenarios is how many seeded fault schedules to soak; 0 selects 20.
	Scenarios int
	// Backends is the fleet size; 0 selects 3.
	Backends int
	// Ticks is the feed horizon per scenario; 0 selects 96.
	Ticks int
	// CheckpointEvery is the streamers' snapshot cadence in feed ticks;
	// 0 selects 8 — small, so kill/restart windows straddle several
	// checkpoints.
	CheckpointEvery int
	// Log, when set, receives one line per scenario.
	Log io.Writer
}

// FleetRun is the outcome of one fleet scenario.
type FleetRun struct {
	// Seed is the scenario's seed.
	Seed uint64
	// Scenario is the injected fleet fault schedule.
	Scenario faults.Scenario
	// Kills, Partitions, SlowClients and FeedGaps count the schedule's
	// plans by kind.
	Kills, Partitions, SlowClients, FeedGaps int
	// Restores counts snapshot-store recoveries (one per kill).
	Restores int
	// CatchupTicks sums the ticks re-ingested across restores; the soak
	// fails if any single restore exceeds CheckpointEvery + outage.
	CatchupTicks int
	// MaxCatchup is the largest single-restore catch-up in the run.
	MaxCatchup int
	// Reconnects counts the live SSE client's connections (≥1).
	Reconnects int
	// Requests counts routed quote posts (one per tick).
	Requests int
	// Digest fingerprints the fleet's backend state; equal seeds must
	// produce equal digests.
	Digest string
}

// FleetReport aggregates a fleet soak.
type FleetReport struct {
	// Runs holds one entry per scenario, in seed order.
	Runs []FleetRun
	// Kills, Partitions, SlowClients, FeedGaps, Restores and
	// CatchupTicks sum the per-run counters.
	Kills, Partitions, SlowClients, FeedGaps, Restores, CatchupTicks int
	// MaxCatchup is the largest single-restore catch-up observed.
	MaxCatchup int
	// Elapsed is the soak's wall-clock duration.
	Elapsed time.Duration
}

// FleetSoak runs the configured number of fleet fault scenarios, each
// twice for determinism, verifying every invariant. Any violation
// returns an error naming the offending seed.
func FleetSoak(ctx context.Context, cfg FleetConfig) (*FleetReport, error) {
	if cfg.Scenarios <= 0 {
		cfg.Scenarios = 20
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 3
	}
	if cfg.Ticks <= 0 {
		cfg.Ticks = 96
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 8
	}
	start := time.Now()
	before := leak.Baseline()
	rep := &FleetReport{}
	for i := 0; i < cfg.Scenarios; i++ {
		seed := cfg.Seed + uint64(i)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		first, err := fleetOne(ctx, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("fleet: seed %d: %w", seed, err)
		}
		second, err := fleetOne(ctx, cfg, seed)
		if err != nil {
			return nil, fmt.Errorf("fleet: seed %d (replay): %w", seed, err)
		}
		if first.Digest != second.Digest {
			return nil, fmt.Errorf("fleet: seed %d is nondeterministic: %s vs %s", seed, first.Digest, second.Digest)
		}
		rep.Runs = append(rep.Runs, *first)
		rep.Kills += first.Kills
		rep.Partitions += first.Partitions
		rep.SlowClients += first.SlowClients
		rep.FeedGaps += first.FeedGaps
		rep.Restores += first.Restores
		rep.CatchupTicks += first.CatchupTicks
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "seed %-4d faults=%d kills=%d partitions=%d slow=%d gaps=%d restores=%d catchup=%-3d reconnects=%d %s\n",
				seed, len(first.Scenario.Plans), first.Kills, first.Partitions, first.SlowClients,
				first.FeedGaps, first.Restores, first.CatchupTicks, first.Reconnects, first.Digest)
		}
		if first.MaxCatchup > rep.MaxCatchup {
			rep.MaxCatchup = first.MaxCatchup
		}
		if err := leak.Check(before); err != nil {
			return nil, fmt.Errorf("fleet: seed %d: %w", seed, err)
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// fleetShape is the subscription shape every fleet client uses; one
// shape keeps every backend's resident-evaluator work identical and
// makes generations comparable across the fleet.
var fleetShape = quote.Request{WorkHours: 4, DeadlineHours: 12, MaxZones: 1, Top: 3}

// fleetQuoteBody is the one-shot request posted every tick.
const fleetQuoteBody = `{"work_hours":4,"deadline_hours":8,"history_window":3,"max_zones":1}`

// fleetBackend is one in-process quoted instance with a crash switch: a
// kill cancels the life context (severing any stream its handler still
// holds), discards the service and streamer — memory state is gone —
// and leaves only the snapshot store, exactly what a process crash
// leaves on disk. Restart boots a fresh instance and restores from it.
type fleetBackend struct {
	name            string
	hist            *trace.Set
	zones           []string
	start, step     int64
	backlog         int
	checkpointEvery int

	store *quote.MemStore

	mu          sync.Mutex
	handler     http.Handler
	streamer    *quote.Streamer
	sub         *quote.StreamSub // persistent resident subscription
	slowSub     *quote.StreamSub // a SlowClient plan's stalled subscriber
	dead        bool
	partitioned bool
	lifeCtx     context.Context
	lifeCancel  context.CancelFunc

	restores, catchup int
}

// boot builds one service+streamer life. Restore state, if any, is the
// caller's next step.
func (fb *fleetBackend) boot(parent context.Context) {
	ev := core.NewEvaluator()
	svc := &quote.Service{Source: &quote.StaticSource{Set: fb.hist}, Eval: ev}
	st := &quote.Streamer{
		Eval:            ev,
		Zones:           fb.zones,
		Start:           fb.start,
		Step:            fb.step,
		Backlog:         fb.backlog,
		StaleAfter:      time.Hour, // staleness flapping is wall-clock; keep it out of the soak
		Heartbeat:       50 * time.Millisecond,
		CrossCheckEvery: -1, // cross-check cadence is pinned by unit tests; keep ticks O(delta)
		Store:           fb.store,
		CheckpointEvery: fb.checkpointEvery,
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.handler = quote.NewStreamingHandler(svc, st)
	fb.streamer = st
	fb.lifeCtx, fb.lifeCancel = context.WithCancel(parent)
}

// ServeHTTP is the backend as the router sees it: 502 while dead or
// partitioned (a dead process and a severed link look identical from
// the LB), otherwise the live handler under the life context, so a kill
// mid-stream unwinds the handler like a dropped process connection.
func (fb *fleetBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fb.mu.Lock()
	dead, part, h, life := fb.dead, fb.partitioned, fb.handler, fb.lifeCtx
	fb.mu.Unlock()
	if dead || part || h == nil {
		http.Error(w, "connection refused", http.StatusBadGateway)
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(life, cancel)
	defer stop()
	h.ServeHTTP(w, r.WithContext(ctx))
}

// subscribe attaches (or re-attaches) the persistent resident
// subscription, keeping one evaluator resident per backend life.
func (fb *fleetBackend) subscribe() error {
	sub, err := fb.streamer.Subscribe(fleetShape)
	if err != nil {
		return err
	}
	fb.mu.Lock()
	fb.sub = sub
	fb.mu.Unlock()
	return nil
}

// kill crashes the backend: memory state discarded, streams severed,
// only the snapshot store survives.
func (fb *fleetBackend) kill() {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.dead = true
	fb.lifeCancel()
	fb.handler = nil
	fb.streamer = nil
	fb.sub = nil
	fb.slowSub = nil
}

// restart boots a fresh instance, restores the last checkpoint from the
// snapshot store and catches up the feed ticks the outage missed —
// rows[snap.Seq+1 .. now-1]; the current tick arrives through normal
// delivery. Returns the catch-up size.
func (fb *fleetBackend) restart(parent context.Context, rows [][]float64, now uint64) (int, error) {
	fb.boot(parent)
	snap, err := fb.store.Load()
	if err != nil {
		return 0, fmt.Errorf("%s: loading snapshot: %w", fb.name, err)
	}
	if snap == nil {
		return 0, fmt.Errorf("%s: restarted with an empty snapshot store", fb.name)
	}
	if err := fb.streamer.Restore(snap); err != nil {
		return 0, fmt.Errorf("%s: restore: %w", fb.name, err)
	}
	catchup := 0
	for s := snap.Seq + 1; s < now; s++ {
		if err := fb.streamer.Ingest(s, rows[s]); err != nil {
			return 0, fmt.Errorf("%s: catch-up tick %d: %w", fb.name, s, err)
		}
		catchup++
	}
	fb.mu.Lock()
	fb.dead = false
	fb.mu.Unlock()
	if err := fb.subscribe(); err != nil {
		return 0, err
	}
	fb.restores++
	fb.catchup += catchup
	return catchup, nil
}

// fleetOne builds the topology, drives one scenario tick by tick, and
// verifies every invariant.
func fleetOne(ctx context.Context, cfg FleetConfig, seed uint64) (*FleetRun, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()

	set := tracegen.HighVolatility(seed)
	zones := set.Zones()
	start, step := set.Start(), set.Step()
	rows := make([][]float64, cfg.Ticks+1) // 1-based feed sequence numbers
	for s := 1; s <= cfg.Ticks; s++ {
		rows[s] = set.PricesAt(start + int64(s-1)*step)
	}
	scenario := faults.RandomFleetScenario(seed, int64(cfg.Ticks), cfg.Backends)
	run := &FleetRun{Seed: seed, Scenario: scenario}

	fleet := make([]*fleetBackend, cfg.Backends)
	backends := make([]*cluster.Backend, cfg.Backends)
	for i := range fleet {
		fb := &fleetBackend{
			name:            fmt.Sprintf("b%d", i),
			hist:            set,
			zones:           zones,
			start:           start,
			step:            step,
			backlog:         2 * cfg.Ticks, // never trims: restore geometry stays exact
			checkpointEvery: cfg.CheckpointEvery,
			store:           &quote.MemStore{},
		}
		fb.boot(sctx)
		if err := fb.subscribe(); err != nil {
			return nil, err
		}
		fleet[i] = fb
		b := cluster.NewBackend(fb.name, fb)
		// Threshold 1 ejects a corpse on first contact; the hour-long
		// cooldown keeps readmission explicit (restart/heal), never a
		// wall-clock race.
		b.Breaker = &quote.Breaker{Threshold: 1, Cooldown: time.Hour}
		backends[i] = b
	}
	router := &cluster.Router{
		Backends: backends,
		Policy:   cluster.NewRoundRobin(),
		// Generous but bounded: one fault window at a time must never
		// exhaust it, so every client-visible error is a real violation.
		Retry: &cluster.Budget{Ratio: 0.5, Burst: 64},
	}
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	// The live SSE client: subscribes through the front door, reconnects
	// with Last-Event-ID whenever its stream dies, and watches for any
	// generation regression. Its observations are asserted, not digested.
	var reconnects, sseErrors, regressions atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastID uint64
		for sctx.Err() == nil {
			req, err := http.NewRequestWithContext(sctx, http.MethodGet, front.URL+streamPath(""), nil)
			if err != nil {
				sseErrors.Add(1)
				return
			}
			if lastID > 0 {
				req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
			}
			resp, err := client.Do(req)
			if err != nil {
				continue // scenario over, or a connection lost pre-header
			}
			if resp.StatusCode != http.StatusOK {
				sseErrors.Add(1)
				resp.Body.Close()
				return
			}
			reconnects.Add(1)
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				line := sc.Text()
				if !strings.HasPrefix(line, "id: ") {
					continue
				}
				id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
				if err != nil {
					continue
				}
				if id < lastID {
					regressions.Add(1)
				}
				lastID = id
			}
			resp.Body.Close() // stream died (kill or scenario end): reconnect
		}
	}()

	// The tick loop is the scenario clock: heal and engage faults, then
	// deliver the tick, then act as the fleet's clients.
	var lastSeen uint64
	for s := 1; s <= cfg.Ticks; s++ {
		if err := sctx.Err(); err != nil {
			return nil, err
		}
		tick := int64(s)
		for pi := range scenario.Plans {
			p := &scenario.Plans[pi]
			fb, b := fleet[p.Backend], backends[p.Backend]
			switch {
			case tick == p.At+p.Duration: // heal boundary first: the window is [At, At+Duration)
				switch p.Kind {
				case faults.BackendKill:
					catchup, err := fb.restart(sctx, rows, uint64(s))
					if err != nil {
						return nil, err
					}
					if limit := cfg.CheckpointEvery + int(p.Duration); catchup > limit {
						return nil, fmt.Errorf("%s: restore caught up %d ticks, bound is %d (checkpoint cadence %d + outage %d) — that is a replay, not a resume",
							fb.name, catchup, limit, cfg.CheckpointEvery, p.Duration)
					}
					if full := s - 1; catchup >= full {
						return nil, fmt.Errorf("%s: restore caught up %d of %d ticks: full replay", fb.name, catchup, full)
					}
					if catchup > run.MaxCatchup {
						run.MaxCatchup = catchup
					}
					b.Breaker.Success() // the health probe readmitting a restarted backend
				case faults.Partition:
					fb.mu.Lock()
					fb.partitioned = false
					fb.mu.Unlock()
					b.Breaker.Success()
				case faults.SlowClient:
					fb.mu.Lock()
					slow := fb.slowSub
					fb.slowSub = nil
					fb.mu.Unlock()
					if slow != nil {
						slow.Close()
					}
				}
			case tick == p.At:
				switch p.Kind {
				case faults.BackendKill:
					run.Kills++
					fb.kill()
				case faults.Partition:
					run.Partitions++
					fb.mu.Lock()
					fb.partitioned = true
					fb.mu.Unlock()
				case faults.SlowClient:
					run.SlowClients++
					// A subscriber that never reads: latest-wins fan-out
					// must coalesce it without stalling anyone else.
					slow, err := fb.streamer.Subscribe(fleetShape)
					if err != nil {
						return nil, fmt.Errorf("%s: slow subscriber refused: %w", fb.name, err)
					}
					fb.mu.Lock()
					fb.slowSub = slow
					fb.mu.Unlock()
				case faults.FeedGap:
					run.FeedGaps++
				}
			}
		}

		// Feed delivery: every alive backend whose link isn't gapped gets
		// the tick; a dup-delivery probe exercises dedup determinism.
		for i, fb := range fleet {
			fb.mu.Lock()
			dead, st := fb.dead, fb.streamer
			fb.mu.Unlock()
			if dead || feedGapped(scenario, i, tick) {
				continue
			}
			if err := st.Ingest(uint64(s), rows[s]); err != nil {
				return nil, fmt.Errorf("%s: tick %d: %w", fb.name, s, err)
			}
			if s%17 == 0 {
				if err := st.Ingest(uint64(s), rows[s]); err != nil { // duplicate delivery: must drop
					return nil, fmt.Errorf("%s: dup tick %d: %w", fb.name, s, err)
				}
			}
		}

		// Client 1: a routed quote. Zero tolerance — the budget and the
		// healthy majority must absorb every fault window.
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/quote", strings.NewReader(fleetQuoteBody))
		front.Config.Handler.ServeHTTP(rec, req)
		run.Requests++
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("tick %d: routed quote answered %d: %s", s, rec.Code, rec.Body.String())
		}

		// Client 2: a reconnecting stream watcher — a fresh subscription
		// every tick carrying its resume floor (alternating the
		// Last-Event-ID header and the explicit ?gen=N parameter), whose
		// announced generation must never regress even when routed to a
		// backend whose evaluator is behind.
		gen, err := watchStream(sctx, client, front.URL, lastSeen, s%2 == 0)
		if err != nil {
			return nil, fmt.Errorf("tick %d: %w", s, err)
		}
		if gen < lastSeen {
			return nil, fmt.Errorf("tick %d: stream generation regressed %d -> %d across reconnect", s, lastSeen, gen)
		}
		lastSeen = gen
	}

	cancel()
	wg.Wait()
	front.Close()
	if n := sseErrors.Load(); n != 0 {
		return nil, fmt.Errorf("live SSE client saw %d non-200 responses", n)
	}
	if n := regressions.Load(); n != 0 {
		return nil, fmt.Errorf("live SSE client saw %d generation regressions", n)
	}
	if n := router.Stats().Unroutable.Load(); n != 0 {
		return nil, fmt.Errorf("router reported %d unroutable requests", n)
	}
	run.Reconnects = int(reconnects.Load())
	if run.Reconnects == 0 {
		return nil, fmt.Errorf("live SSE client never connected")
	}
	for _, fb := range fleet {
		if n := fb.streamer.Metrics.TickErrors.Load(); n != 0 {
			return nil, fmt.Errorf("%s: %d tick application errors", fb.name, n)
		}
		run.Restores += fb.restores
		run.CatchupTicks += fb.catchup
	}
	run.Digest = fleetDigest(scenario, fleet)
	for _, fb := range fleet {
		fb.mu.Lock()
		sub, slow := fb.sub, fb.slowSub
		fb.mu.Unlock()
		if sub != nil {
			sub.Close()
		}
		if slow != nil {
			slow.Close()
		}
	}
	return run, nil
}

// streamPath is the front-door subscription URL for the fleet shape.
func streamPath(extra string) string {
	return "/v1/quotes/stream?work_hours=4&deadline_hours=12&max_zones=1&top=3" + extra
}

// watchStream opens one resumed subscription through the front door,
// reads the announced generation from the response header and
// disconnects — the reconnect-churn client, exercised once per tick.
func watchStream(ctx context.Context, client *http.Client, base string, since uint64, useHeader bool) (uint64, error) {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	path := streamPath("")
	if !useHeader && since > 0 {
		path = streamPath("&gen=" + strconv.FormatUint(since, 10))
	}
	req, err := http.NewRequestWithContext(wctx, http.MethodGet, base+path, nil)
	if err != nil {
		return 0, err
	}
	if useHeader && since > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(since, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("stream watcher: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("stream watcher: status %d: %s", resp.StatusCode, body)
	}
	gen, err := strconv.ParseUint(resp.Header.Get("X-Plan-Generation"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stream watcher: X-Plan-Generation %q: %v", resp.Header.Get("X-Plan-Generation"), err)
	}
	return gen, nil
}

// feedGapped reports whether backend i's feed link is inside a FeedGap
// window at the given tick.
func feedGapped(sc faults.Scenario, backend int, tick int64) bool {
	for _, p := range sc.Plans {
		if p.Kind == faults.FeedGap && p.Backend == backend &&
			tick >= p.At && tick < p.At+p.Duration {
			return true
		}
	}
	return false
}

// fleetDigest fingerprints the deterministic backend state: the fault
// schedule plus, per backend, the feed cursor, the resident shape's
// generation, and the dedup/gap-fill/checkpoint/restore counters. The
// tick loop alone drives all of it — client scheduling cannot.
func fleetDigest(sc faults.Scenario, fleet []*fleetBackend) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(sc.Seed)
	put(uint64(len(sc.Plans)))
	for _, p := range sc.Plans {
		put(uint64(p.At))
		put(uint64(p.Kind))
		put(uint64(p.Duration))
		put(uint64(p.Backend))
	}
	for _, fb := range fleet {
		h.Write([]byte(fb.name))
		put(fb.streamer.Seq())
		put(fb.streamer.Generation(fb.sub))
		put(uint64(fb.streamer.Metrics.Ticks.Load()))
		put(uint64(fb.streamer.Metrics.DupTicks.Load()))
		put(uint64(fb.streamer.Metrics.GapFills.Load()))
		put(uint64(fb.streamer.Metrics.Checkpoints.Load()))
		put(uint64(fb.streamer.Metrics.Restores.Load()))
		put(uint64(fb.restores))
		put(uint64(fb.catchup))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
