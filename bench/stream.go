package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quote"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// The stream-live subscription mix: eight resident shapes, two of them
// subscribed over SSE through the router (the load generator's two
// connections) and six held by in-process subscription handles.
const (
	streamShapeCount = 8
	streamSSE        = 2
	streamTop        = 3
)

// streamShapes draws the seeded subscription mix: work uniform on
// [4, 16] h at 0.001 h resolution, deadline 1.5 × work, top 3, with
// max_zones alternating 2 and 3. A shape's per-tick cost follows its
// zone count, not its work, so the draw moves no metric.
func streamShapes(seed uint64) []quote.StreamRequest {
	rng := rand.New(rand.NewSource(int64(seed)))
	seen := map[string]bool{}
	var out []quote.StreamRequest
	for len(out) < streamShapeCount {
		work := 4 + float64(rng.Intn(12001))/1000
		r := quote.StreamRequest{WorkHours: work, DeadlineHours: 1.5 * work, MaxZones: 2 + len(out)%2, Top: streamTop}
		r.Normalize()
		if !seen[r.Key()] {
			seen[r.Key()] = true
			out = append(out, r)
		}
	}
	return out
}

// streamQuery renders a shape as the stream endpoint's query string.
func streamQuery(r quote.StreamRequest) string {
	return fmt.Sprintf("work_hours=%g&deadline_hours=%g&max_zones=%d&top=%d", r.WorkHours, r.DeadlineHours, r.MaxZones, r.Top)
}

// hours converts hours to whole seconds the way the streamer does.
func hours(h float64) int64 { return int64(math.Round(h * float64(trace.Hour))) }

// genTracker checks that the plan generations of one stream rise
// strictly.
type genTracker struct {
	last uint64
	seen bool
}

// observe admits the next generation.
func (g *genTracker) observe(gen uint64) error {
	if g.seen && gen <= g.last {
		return fmt.Errorf("generation %d arrived after %d", gen, g.last)
	}
	g.last, g.seen = gen, true
	return nil
}

// frame is one received plan event: the feed tick that produced it and
// when the client read it, in nanoseconds since the session epoch.
type frame struct {
	tick uint64
	recv int64
}

// sseReader is one SSE subscription's client. Its fields belong to its
// goroutine until done is closed.
type sseReader struct {
	cancel  context.CancelFunc
	done    chan struct{}
	closing atomic.Bool
	lastGen atomic.Uint64

	frames   []frame
	lastData []byte
	gens     genTracker
	genErr   error
	bad      int64
	err      error
}

// read consumes SSE frames until the stream ends.
func (r *sseReader) read(resp *http.Response, epoch time.Time) {
	defer close(r.done)
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	event := ""
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if !r.closing.Load() {
				r.err = fmt.Errorf("stream dropped: %w", err)
			}
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			event = ""
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case event == "plan" && bytes.HasPrefix(line, []byte("data: ")):
			recv := int64(time.Since(epoch))
			data := line[len("data: "):]
			var ev quote.StreamEvent
			if err := json.Unmarshal(data, &ev); err != nil || ev.Best == nil {
				r.bad++
				continue
			}
			if err := r.gens.observe(ev.Generation); err != nil && r.genErr == nil {
				r.genErr = err
			}
			r.frames = append(r.frames, frame{tick: ev.Tick, recv: recv})
			r.lastData = append(r.lastData[:0], data...)
			r.lastGen.Store(ev.Generation)
		}
	}
}

// close ends the subscription and waits for the reader.
func (r *sseReader) close() {
	r.closing.Store(true)
	r.cancel()
	<-r.done
}

// streamSession is one booted stream-live set-up: a one-backend fleet
// whose streamer holds every shape, the SSE readers and in-process
// handles, and the warm-up ticks already applied.
type streamSession struct {
	epoch   time.Time
	fleet   *fleet
	st      *quote.Streamer
	subs    []*quote.StreamSub
	readers []*sseReader
}

// feedRow returns the price row of feed sequence seq (1-based).
func feedRow(set *trace.Set, seq uint64) []float64 {
	return set.PricesAt(set.Start() + int64(seq-1)*set.Step())
}

// openStream boots a session and feeds it warm ticks unpaced. Shapes
// subscribe before the first tick, so every resident evaluator counts
// ticks from feed sequence 1.
func openStream(set *trace.Set, shapes []quote.StreamRequest, warm int, rec *recorder) (*streamSession, error) {
	f, err := newFleet(set, 1, true, rec)
	if err != nil {
		return nil, err
	}
	s := &streamSession{epoch: time.Now(), fleet: f, st: f.streamers[0]}
	for _, r := range shapes[streamSSE:] {
		sub, err := s.st.Subscribe(r)
		if err != nil {
			s.close()
			return nil, err
		}
		s.subs = append(s.subs, sub)
	}
	client := newClient(loadConns)
	for _, r := range shapes[:streamSSE] {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.url+"/v1/quotes/stream?"+streamQuery(r), nil)
		if err == nil {
			var resp *http.Response
			if resp, err = client.Do(req); err == nil && resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				err = fmt.Errorf("stream subscription answered %s", resp.Status)
			}
			if err == nil {
				rd := &sseReader{cancel: cancel, done: make(chan struct{})}
				s.readers = append(s.readers, rd)
				go rd.read(resp, s.epoch)
				continue
			}
		}
		cancel()
		s.close()
		return nil, err
	}
	for seq := uint64(1); seq <= uint64(warm); seq++ {
		if err := s.st.Ingest(seq, feedRow(set, seq)); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// close ends every subscription and stops the fleet.
func (s *streamSession) close() error {
	for _, rd := range s.readers {
		rd.close()
	}
	for _, sub := range s.subs {
		sub.Close()
	}
	return s.fleet.stop()
}

// wirePlans converts a ranked table to its top plans on the wire, as
// the quote service encodes them.
func wirePlans(plans []core.Plan, top int) []quote.Plan {
	out := make([]quote.Plan, min(top, len(plans)))
	for i := range out {
		p := plans[i]
		out[i] = quote.Plan{
			Bid:                  p.Bid,
			Zones:                p.Zones,
			Policy:               p.Policy,
			PredictedCost:        p.PredictedCost,
			CostRatePerHour:      p.CostRate,
			ProgressRate:         p.ProgressRate,
			PredictedFinishHours: float64(p.PredictedFinish) / float64(trace.Hour),
			DeadlineMarginHours:  float64(p.DeadlineMargin) / float64(trace.Hour),
		}
	}
	return out
}

// framePlans returns the plans an SSE frame carries, best first.
func framePlans(data []byte) ([]quote.Plan, error) {
	var ev quote.StreamEvent
	if err := json.Unmarshal(data, &ev); err != nil {
		return nil, err
	}
	if ev.Best == nil {
		return nil, errors.New("frame carries no plan")
	}
	return append([]quote.Plan{*ev.Best}, ev.Alternatives...), nil
}

// samePlans compares two plan lists by their wire encoding.
func samePlans(a, b []quote.Plan) (bool, error) {
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ja, jb), nil
}

// shadowRun is a standalone streaming evaluator fed the ticks one SSE
// shape saw, timed per measured tick.
type shadowRun struct {
	se       *core.StreamEvaluator
	warmGen  uint64
	advances []float64 // µs per measured tick
}

// runShadow replays the session's ticks through a fresh evaluator of the
// shape, configured as the streamer configures its own.
func runShadow(set *trace.Set, r quote.StreamRequest, warm, total int) (*shadowRun, error) {
	se, err := core.NewStreamEvaluator(core.NewEvaluator(), core.StreamConfig{
		Zones:          set.Zones(),
		Start:          set.Start(),
		Step:           set.Step(),
		Work:           hours(r.WorkHours),
		Deadline:       hours(r.DeadlineHours),
		CheckpointCost: core.DefaultCheckpointCost,
		RestartCost:    core.DefaultCheckpointCost,
		OnDemandRate:   r.OnDemandPrice,
		MaxZones:       r.MaxZones,
	})
	if err != nil {
		return nil, err
	}
	sh := &shadowRun{se: se}
	for seq := uint64(1); seq <= uint64(total); seq++ {
		t := time.Now()
		if _, err := se.Advance(feedRow(set, seq)); err != nil {
			return nil, err
		}
		if seq > uint64(warm) {
			sh.advances = append(sh.advances, microseconds(t))
		}
		if seq == uint64(warm) {
			sh.warmGen = se.Generation()
		}
	}
	return sh, nil
}

// finalFramesCheck requires each SSE shape's last frame to equal both
// the shadow evaluator's table and a from-scratch Rank over every tick
// the feed delivered.
func finalFramesCheck(set *trace.Set, shapes []quote.StreamRequest, readers []*sseReader, shadows []*shadowRun, total int) error {
	hist := set.Slice(set.Start(), set.Start()+int64(total)*set.Step())
	for i, rd := range readers {
		r := shapes[i]
		got, err := framePlans(rd.lastData)
		if err != nil {
			return fmt.Errorf("shape %s: last frame: %w", r.Key(), err)
		}
		plans, err := core.NewEvaluator().Rank(core.PlanRequest{
			History:        hist,
			Work:           hours(r.WorkHours),
			Deadline:       hours(r.DeadlineHours),
			CheckpointCost: core.DefaultCheckpointCost,
			RestartCost:    core.DefaultCheckpointCost,
			OnDemandRate:   r.OnDemandPrice,
			MaxZones:       r.MaxZones,
		})
		if err != nil {
			return err
		}
		for _, want := range []struct {
			what  string
			plans []quote.Plan
		}{{"a from-scratch Rank", wirePlans(plans, r.Top)}, {"the shadow evaluator", wirePlans(shadows[i].se.Plans(), r.Top)}} {
			same, err := samePlans(got, want.plans)
			if err != nil {
				return err
			}
			if !same {
				return fmt.Errorf("shape %s: last frame differs from %s", r.Key(), want.what)
			}
		}
	}
	return nil
}

// runStreamLive feeds one backend's streamer on an open-loop tick
// schedule while eight shapes stay resident, and times each tick from
// when it was due to when an SSE client read the plan frame it caused.
func runStreamLive(cfg config, res *Result) error {
	shapes := streamShapes(cfg.seed)
	nTicks := int(cfg.tickRate * cfg.measure.Seconds())
	total := cfg.warmTicks + nTicks
	set := tracegen.HighVolatility(traceSeed)
	if nTicks < 1 {
		return fmt.Errorf("stream-live needs at least one measured tick")
	}
	if total > set.Series[0].Len() {
		return fmt.Errorf("stream-live needs %d ticks, the history holds %d", total, set.Series[0].Len())
	}
	var rec *recorder
	if cfg.traced() {
		// Every set-up's warm-up ticks record spans too.
		rec = newRecorder(traceCapacity(float64(cfg.setups*cfg.warmTicks+nTicks), 4*streamShapeCount+4))
	}
	var s *streamSession
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = openStream(tracegen.HighVolatility(traceSeed), shapes, cfg.warmTicks, rec); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	sessionOpen := true
	defer func() {
		if sessionOpen {
			s.close()
		}
	}()

	interval := float64(time.Second) / cfg.tickRate
	late := make([]float64, nTicks)    // ms
	ingest := make([]float64, nTicks)  // µs
	ingestEnd := make([]int64, nTicks) // ns since the session epoch
	var ingestErrs int64
	p := beginPhase()
	t0 := time.Since(s.epoch)
	for k := 0; k < nTicks; k++ {
		seq := uint64(cfg.warmTicks + k + 1)
		due := s.epoch.Add(t0 + time.Duration(float64(k)*interval))
		sleepUntil(due)
		start, sid, s0 := time.Now(), rec.newID(), rec.now()
		if err := s.st.Ingest(seq, feedRow(set, seq)); err != nil {
			ingestErrs++
		}
		end := time.Now()
		if rec != nil {
			rec.add(span{ID: sid, Req: seq, Name: "feed.ingest", Start: s0, End: rec.now()})
		}
		late[k] = float64(start.Sub(due)) / 1e6
		ingest[k] = float64(end.Sub(start)) / 1e3
		ingestEnd[k] = int64(end.Sub(s.epoch))
	}
	feedTime := time.Duration(ingestEnd[nTicks-1]) - t0
	res.addCommon(p, int64(nTicks), setups)

	shadows := make([]*shadowRun, len(s.readers))
	for i := range s.readers {
		sh, err := runShadow(set, shapes[i], cfg.warmTicks, total)
		if err != nil {
			return err
		}
		shadows[i] = sh
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, rd := range s.readers {
		for rd.lastGen.Load() < shadows[i].se.Generation() && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	}
	sessionOpen = false
	if err := s.close(); err != nil {
		return err
	}

	var lat []float64
	var drops, bad int64
	var genErr, dropErr error
	var frames []frame
	for _, rd := range s.readers {
		if rd.err != nil {
			drops++
			dropErr = rd.err
		}
		bad += rd.bad
		if genErr == nil {
			genErr = rd.genErr
		}
		for _, fr := range rd.frames {
			if fr.tick <= uint64(cfg.warmTicks) {
				continue
			}
			k := int(fr.tick) - cfg.warmTicks - 1
			lat = append(lat, float64(fr.recv-int64(t0)-int64(float64(k)*interval))/1e6)
			frames = append(frames, fr)
		}
	}
	res.Attempted, res.Failed = int64(nTicks), ingestErrs+bad+drops
	slat := sorted(lat)
	res.metric("latency_p50_ms", pct(slat, 0.50), len(slat))
	res.layer("latency_p99_ms", pct(slat, 0.99), len(slat))
	res.metric("throughput_per_s", float64(nTicks)/feedTime.Seconds(), nTicks)
	res.check("plan generations rise strictly on every stream", genErr)
	res.check("no stream dropped", dropErr)
	var framesErr error
	if len(frames) == 0 {
		framesErr = errors.New("no plan frame arrived during the measured ticks")
	}
	res.check("plan frames arrive for the measured ticks", framesErr)
	res.check("final frames equal a from-scratch Rank and the shadow evaluator", finalFramesCheck(set, shapes, s.readers, shadows, total))
	if rec == nil {
		return nil
	}
	return finishTrace(cfg, res, rec, func(bench []span, program []obs.Span) {
		streamLayers(res, bench, program, s, shadows, frames, late, ingest, ingestEnd, cfg.warmTicks)
	})
}

// streamLayers splits each measured frame's latency into the feed's
// lateness, the ingest call (its own time plus the resident
// evaluators' update, re-rank, cross-check and remaining advance
// time, from the program's spans inside it) and the gap from the end of
// the ingest call to the client reading the frame, which covers the
// SSE write, the proxy and the router passthrough. These parts add up
// to the frame's latency.
func streamLayers(res *Result, bench []span, program []obs.Span, s *streamSession, shadows []*shadowRun,
	frames []frame, late, ingest []float64, ingestEnd []int64, warm int) {
	// Each measured tick's feed.ingest span (its request id is the feed
	// sequence), ordered by start for the containment search below.
	type window struct {
		start, end int64
		k          int
	}
	var wins []window
	for _, b := range bench {
		if b.Name == "feed.ingest" {
			wins = append(wins, window{b.Start, b.End, int(b.Req) - warm - 1})
		}
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i].start < wins[j].start })
	parts := map[string][]float64{} // name → per-tick ns inside the ingest call
	for _, name := range []string{"stream.advance", "stream.update", "stream.rerank", "stream.crosscheck"} {
		parts[name] = make([]float64, len(ingest))
	}
	for i := range program {
		sp := &program[i]
		sums, ok := parts[sp.Name]
		if !ok {
			continue
		}
		j := sort.Search(len(wins), func(j int) bool { return wins[j].start > sp.Start }) - 1
		if j >= 0 && sp.End <= wins[j].end {
			sums[wins[j].k] += float64(sp.End - sp.Start)
		}
	}

	rows := []string{"feed.late", "feed.ingest self", "stream.update", "stream.rerank", "stream.crosscheck", "stream.advance self", "gap (read − ingest end)"}
	samples := map[string][]float64{}
	var total, gaps []float64
	for _, fr := range frames {
		k := int(fr.tick) - warm - 1
		adv, upd, rr, cc := parts["stream.advance"][k], parts["stream.update"][k], parts["stream.rerank"][k], parts["stream.crosscheck"][k]
		in := ingest[k] * 1e3
		gap := float64(fr.recv - ingestEnd[k])
		vals := []float64{late[k] * 1e6, in - adv, upd, rr, cc, adv - upd - rr - cc, gap}
		sum := 0.0
		for i, v := range vals {
			samples[rows[i]] = append(samples[rows[i]], v)
			sum += v
		}
		total = append(total, sum)
		gaps = append(gaps, gap)
	}
	res.Breakdown = breakdown(total, rows, samples)

	si := sorted(ingest)
	res.layer("feed.ingest_us_p50", pct(si, 0.50), len(si))
	res.layer("feed.ingest_us_p99", pct(si, 0.99), len(si))
	res.layer("feed.late_ms_p99", pct(sorted(late), 0.99), len(late))
	sm := s.st.Metrics
	res.layer("quote.push_ms_p50", sm.PushLatencyQuantile(0.50)*1e3, len(frames))
	res.layer("quote.push_ms_p99", sm.PushLatencyQuantile(0.99)*1e3, len(frames))
	var gens uint64
	var adv []float64
	var stats core.StreamStats
	fallback := 0
	for _, sh := range shadows {
		gens += sh.se.Generation() - sh.warmGen
		adv = append(adv, sh.advances...)
		st := sh.se.Stats()
		stats.CatchUps += st.CatchUps
		stats.Rebuilds += st.Rebuilds
		if st.Fallback {
			fallback++
		}
	}
	res.layer("stream.generations", float64(gens), len(shadows))
	res.layer("stream.frames_received", float64(len(frames)), len(s.readers))
	res.layer("stream.delivery_ratio", float64(len(frames))/float64(max(gens, 1)), int(gens))
	sa := sorted(adv)
	res.layer("core.stream_advance_us_p50", pct(sa, 0.50), len(sa))
	res.layer("core.stream_advance_us_p99", pct(sa, 0.99), len(sa))
	res.layer("core.stream_catchups", float64(stats.CatchUps), len(shadows))
	res.layer("core.stream_rebuilds", float64(stats.Rebuilds), len(shadows))
	res.layer("core.stream_fallback", float64(fallback), len(shadows))
	res.layer("bench.gap_ms_p50", pct(sorted(gaps), 0.5)/1e6, len(gaps))
	addSweepLayers(res, program)
}
