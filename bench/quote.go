package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/quote"
	"repro/internal/tracegen"
)

// traceSeed seeds the price history the serving workloads run over: the
// default feed of `quoted -preset high`. It does not follow the
// workload seed because the evaluator's cost follows the history's
// price events: over the tail windows of seeds 1–10 a 48-hour Rank
// costs 1.2–2.1 ms on 2 vCPUs, which would make every metric's spread
// across seeds wider than any bound. The workload seed draws the request mix
// and the subscription shapes instead.
const traceSeed = 1

// Load-generator limits, sized for 2 vCPUs: two callers on at most two
// connections.
const (
	loadWorkers = 2
	loadConns   = 2
)

// replayEvery is the sampling stride of the replay check: every 50th
// request is answered again by a fresh in-process service.
const replayEvery = 50

// quoteBody renders one /v1/quote request body. %g prints the shortest
// representation that parses back to the same float, so distinct
// bodies are distinct cache keys.
func quoteBody(work, deadline, window float64, zones int) []byte {
	return []byte(fmt.Sprintf(`{"work_hours":%g,"deadline_hours":%g,"history_window":%g,"max_zones":%d}`,
		work, deadline, window, zones))
}

// uniqueShapes draws request bodies no earlier draw produced: work
// uniform on [4, 24] h at 0.001 h resolution, deadline work × U[1.15,
// 1.5]. Not safe for concurrent use.
type uniqueShapes struct {
	rng    *rand.Rand
	window float64
	zones  int
	seen   map[string]bool
}

// newUniqueShapes starts a seeded draw; taken marks bodies that must
// not be drawn (a hot set).
func newUniqueShapes(seed uint64, window float64, zones int, taken [][]byte) *uniqueShapes {
	u := &uniqueShapes{rng: rand.New(rand.NewSource(int64(seed))), window: window, zones: zones, seen: map[string]bool{}}
	for _, b := range taken {
		u.seen[string(b)] = true
	}
	return u
}

// next returns a body never returned before.
func (u *uniqueShapes) next() []byte {
	for {
		work := 4 + float64(u.rng.Intn(20001))/1000
		b := quoteBody(work, work*(1.15+0.35*u.rng.Float64()), u.window, u.zones)
		if !u.seen[string(b)] {
			u.seen[string(b)] = true
			return b
		}
	}
}

// quoteLoad sends quote requests to the router on at most loadConns
// connections and checks every answer.
type quoteLoad struct {
	client *http.Client
	url    string
	rec    *recorder
	chk    *bodyChecker
}

// newQuoteLoad returns a load generator against a fleet.
func newQuoteLoad(f *fleet, rec *recorder) *quoteLoad {
	return &quoteLoad{client: newClient(loadConns), url: f.url + "/v1/quote", rec: rec, chk: newBodyChecker()}
}

// post sends one request and reads the answer into buf. A non-zero id
// marks a measured request: it carries the benchmark's trace headers
// and records a client span.
func (l *quoteLoad) post(id uint64, body []byte, buf *bytes.Buffer) (int, error) {
	q, err := http.NewRequestWithContext(context.Background(), http.MethodPost, l.url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	q.Header.Set("Content-Type", "application/json")
	var sid uint64
	var start int64
	if l.rec != nil && id != 0 {
		sid, start = l.rec.newID(), l.rec.now()
		q.Header.Set(headerReq, strconv.FormatUint(id, 10))
		q.Header.Set(headerSpan, strconv.FormatUint(sid, 10))
	}
	resp, err := l.client.Do(q)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if sid != 0 {
		l.rec.add(span{ID: sid, Req: id, Name: "client", Start: start, End: l.rec.now()})
	}
	return resp.StatusCode, err
}

// outcomes accumulates one phase's request outcomes.
type outcomes struct {
	mu       sync.Mutex
	lat      []float64 // ms
	late     []float64 // ms, open loop only
	ok, sent int64
}

// record files one finished request.
func (o *outcomes) record(lat, late time.Duration, open, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sent++
	if !ok {
		return
	}
	o.ok++
	o.lat = append(o.lat, float64(lat)/1e6)
	if open {
		o.late = append(o.late, float64(late)/1e6)
	}
}

// send posts one request and checks its answer, reporting success.
func (l *quoteLoad) send(id uint64, seq int64, body []byte, buf *bytes.Buffer) bool {
	status, err := l.post(id, body, buf)
	if err != nil || status != http.StatusOK {
		l.chk.fail(fmt.Errorf("request %s: status %d, error %v", body, status, err))
		return false
	}
	return l.chk.check(seq, body, buf.Bytes())
}

// closedLoop runs loadWorkers callers, each sending its next request as
// soon as the previous one is answered, until the deadline passes (a
// zero deadline never does) or next runs out. next hands out request
// bodies, nil when there are no more, and is called under a lock; ids
// are assigned only when traced is set.
func (l *quoteLoad) closedLoop(deadline time.Time, next func() []byte, traced bool, o *outcomes) {
	var mu sync.Mutex
	var seq int64
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for deadline.IsZero() || time.Now().Before(deadline) {
				mu.Lock()
				seq++
				i, body := seq, next()
				mu.Unlock()
				if body == nil {
					return
				}
				var id uint64
				if traced {
					id = uint64(i)
				}
				start := time.Now()
				ok := l.send(id, i, body, &buf)
				o.record(time.Since(start), 0, false, ok)
			}
		}()
	}
	wg.Wait()
}

// limit cuts next off after n bodies. Like next, the result is called
// under the loop's lock.
func limit(n int, next func() []byte) func() []byte {
	return func() []byte {
		if n == 0 {
			return nil
		}
		n--
		return next()
	}
}

// openLoop sends bodies on a fixed schedule, rate per second from now,
// regardless of how fast answers come: loadWorkers senders take the
// next due request in turn. Each request is timed from when it was due,
// so a stall is charged to every request it delays. It returns the
// time from the first due time to the last answer.
func (l *quoteLoad) openLoop(bodies [][]byte, rate float64, traced bool, o *outcomes) time.Duration {
	interval := float64(time.Second) / rate
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < loadWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := next.Add(1) - 1
				if i >= int64(len(bodies)) {
					return
				}
				due := t0.Add(time.Duration(float64(i) * interval))
				sleepUntil(due)
				sent := time.Now()
				var id uint64
				if traced {
					id = uint64(i + 1)
				}
				ok := l.send(id, i+1, bodies[i], &buf)
				o.record(time.Since(due), sent.Sub(due), true, ok)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// sleepUntil blocks the calling thread until t. It uses the nanosleep
// system call rather than time.Sleep: on a 2-vCPU Linux VM the
// runtime's timers woke a sleeping goroutine about 0.5 ms late, which
// would be charged to every request of an open loop, while nanosleep on
// the goroutine's own thread woke within about 60 µs.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// replaySample is one request with the body the fleet answered.
type replaySample struct{ req, body []byte }

// bodyChecker validates answers as they arrive: each distinct body is
// decoded once and checked for shape and finite costs, a request that
// repeats must get the byte-identical body, and every replayEvery-th
// request is kept for the replay check.
type bodyChecker struct {
	mu      sync.Mutex
	byReq   map[string]uint64 // request body → answer hash
	decoded map[uint64]bool
	samples []replaySample
	err     error
	failed  int64
}

// newBodyChecker returns an empty checker.
func newBodyChecker() *bodyChecker {
	return &bodyChecker{byReq: map[string]uint64{}, decoded: map[uint64]bool{}}
}

// firstErr returns the first failure, if any.
func (c *bodyChecker) firstErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fail records a failed request.
func (c *bodyChecker) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if c.err == nil {
		c.err = err
	}
}

// check validates one answer, reporting whether it passed.
func (c *bodyChecker) check(seq int64, req, body []byte) bool {
	h := fnv.New64a()
	h.Write(body)
	sum := h.Sum64()
	c.mu.Lock()
	prev, repeat := c.byReq[string(req)]
	c.byReq[string(req)] = sum
	fresh := !c.decoded[sum]
	c.decoded[sum] = true
	if seq%replayEvery == 0 {
		c.samples = append(c.samples, replaySample{req: req, body: append([]byte(nil), body...)})
	}
	c.mu.Unlock()
	if repeat && prev != sum {
		c.fail(fmt.Errorf("request %s: answer differs from the earlier answer to the same request", req))
		return false
	}
	if fresh {
		if err := checkQuoteBody(body, quote.DefaultTop); err != nil {
			c.fail(fmt.Errorf("request %s: %w", req, err))
			return false
		}
	}
	return true
}

// checkQuoteBody reports whether body is a complete quote response: it
// decodes strictly into quote.Response, carries the best plan plus
// top−1 alternatives, and every cost is finite.
func checkQuoteBody(body []byte, top int) error {
	var resp quote.Response
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&resp); err != nil {
		return fmt.Errorf("decoding the answer: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the answer")
	}
	if len(resp.Alternatives) != top-1 {
		return fmt.Errorf("%d alternatives, want %d", len(resp.Alternatives), top-1)
	}
	if resp.Evaluated < top {
		return fmt.Errorf("%d permutations evaluated, want at least %d", resp.Evaluated, top)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if !finite(resp.OnDemandCost) {
		return fmt.Errorf("non-finite on-demand cost")
	}
	for i, p := range append([]quote.Plan{resp.Best}, resp.Alternatives...) {
		if !finite(p.PredictedCost) || !finite(p.CostRatePerHour) || !finite(p.ProgressRate) || len(p.Zones) == 0 {
			return fmt.Errorf("plan %d has a non-finite cost or no zones", i)
		}
	}
	return nil
}

// replayCheck answers every sample again on a fresh in-process service
// over src and requires the byte-identical body.
func replayCheck(src quote.HistorySource, samples []replaySample) error {
	if len(samples) == 0 {
		return fmt.Errorf("no requests sampled")
	}
	svc := &quote.Service{Source: src}
	for _, s := range samples {
		req, err := quote.DecodeRequest(bytes.NewReader(s.req))
		if err != nil {
			return err
		}
		body, _, err := svc.Quote(context.Background(), req)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", s.req, err)
		}
		if !bytes.Equal(body, s.body) {
			return fmt.Errorf("replaying %s: body differs from the served one", s.req)
		}
	}
	return nil
}

// quoteResult fills the metrics and checks the two quote workloads
// share.
func quoteResult(res *Result, o *outcomes, elapsed time.Duration, chk *bodyChecker, src quote.HistorySource) {
	res.Attempted, res.Failed = o.sent, o.sent-o.ok
	lat := sorted(o.lat)
	res.metric("latency_p50_ms", pct(lat, 0.50), len(lat))
	res.layer("latency_p99_ms", pct(lat, 0.99), len(lat))
	res.metric("throughput_per_s", float64(o.ok)/elapsed.Seconds(), int(o.ok))
	res.check("answers decode with finite costs and repeat byte-identically", chk.firstErr())
	res.check(fmt.Sprintf("%d sampled answers replay byte-identically", len(chk.samples)), replayCheck(src, chk.samples))
}

// How many quotes a set-up sends through its fresh fleet. A fleet's
// cold start (first connections, evaluator pools, heap growth) is part
// of set-up, counted in requests rather than time so that set-up time
// follows the work it does. Each is about a quarter second of requests,
// long enough that one collector cycle or scheduling hiccup does not
// decide a set-up's time.
const (
	coldWarmRequests = 200
	hotWarmRequests  = 2000
)

// setupFleet runs the workload's set-up reps times, timing each, and
// keeps the last fleet with the load generator that warmed it: the
// median of several set-ups is steadier than one. A set-up generates
// the price history, boots the fleet and runs warm through it.
// Collecting garbage first starts every set-up, and the measured phase,
// from the same heap, so neither the set-up times nor peak_rss_mb
// depend on when the collector last ran.
func setupFleet(reps int, rec *recorder, warm func(*quoteLoad)) (*fleet, *quoteLoad, []float64, error) {
	var f *fleet
	var load *quoteLoad
	var times []float64
	for i := 0; i < reps; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, nil, nil, err
			}
		}
		runtime.GC()
		start := time.Now()
		var err error
		if f, err = newFleet(tracegen.HighVolatility(traceSeed), 2, false, rec); err != nil {
			return nil, nil, nil, err
		}
		load = newQuoteLoad(f, rec)
		warm(load)
		times = append(times, time.Since(start).Seconds())
		if err := load.chk.firstErr(); err != nil {
			f.stop()
			return nil, nil, nil, fmt.Errorf("warming the fleet: %w", err)
		}
	}
	return f, load, times, nil
}

// runQuoteCold drives closed-loop unique quotes: every request is a new
// job shape over the 48-hour priming window, so each one misses the
// plan cache and pays a full permutation search.
func runQuoteCold(cfg config, res *Result) error {
	var rec *recorder
	if cfg.traced() {
		rec = newRecorder(traceCapacity(cfg.measure.Seconds()*1000+float64(cfg.setups*coldWarmRequests), 8))
	}
	set := tracegen.HighVolatility(traceSeed)
	shapes := newUniqueShapes(cfg.seed, 48, 3, nil)
	f, load, setups, err := setupFleet(cfg.setups, rec, func(l *quoteLoad) {
		l.closedLoop(time.Time{}, limit(coldWarmRequests, shapes.next), false, &outcomes{})
	})
	if err != nil {
		return err
	}
	defer f.stop()

	var o outcomes
	p := beginPhase()
	load.closedLoop(p.start.Add(cfg.measure), shapes.next, cfg.traced(), &o)
	elapsed := time.Since(p.start)
	res.addCommon(p, o.sent, setups)

	quoteResult(res, &o, elapsed, load.chk, &quote.StaticSource{Set: set})
	hits, misses, coalesced := f.cacheCounts()
	var cacheErr error
	if hits != 0 || coalesced != 0 {
		cacheErr = fmt.Errorf("%d hits and %d coalesced in %d lookups", hits, coalesced, hits+misses)
	}
	res.check("every request misses the plan cache", cacheErr)
	if rec == nil {
		return nil
	}
	return finishTrace(cfg, res, rec, func(bench []span, program []obs.Span) {
		quoteLayers(res, bench, program, f, nil, hits, hits+misses, coalesced)
		coldProbes(res, set)
	})
}

// hotShapes are the 12 repeated request shapes of the cluster
// simulator's mix (quoted -selfbench's grid): work {4..24} h × slack
// {1.2, 1.5}, over a 6-hour window and at most 2 zones.
func hotShapes() [][]byte {
	var out [][]byte
	for _, work := range []float64{4, 8, 12, 16, 20, 24} {
		for _, slack := range []float64{1.2, 1.5} {
			out = append(out, quoteBody(work, work*slack, 6, 2))
		}
	}
	return out
}

// hotFraction is the share of quote-hot requests drawn from the hot set.
const hotFraction = 0.85

// hotSchedule lays out n requests of the quote-hot mix: exactly
// round(0.85·n) of them, at seeded positions, repeat a seeded choice of
// hot shape, and the rest are unique shapes. It returns how many are
// hot.
func hotSchedule(rng *rand.Rand, hot [][]byte, uniq *uniqueShapes, n int) ([][]byte, int) {
	nHot := int(math.Round(hotFraction * float64(n)))
	isHot := make([]bool, n)
	for i := 0; i < nHot; i++ {
		isHot[i] = true
	}
	rng.Shuffle(n, func(i, j int) { isHot[i], isHot[j] = isHot[j], isHot[i] })
	bodies := make([][]byte, n)
	for i := range bodies {
		if isHot[i] {
			bodies[i] = hot[rng.Intn(len(hot))]
		} else {
			bodies[i] = uniq.next()
		}
	}
	return bodies, nHot
}

// runQuoteHot drives the cluster simulator's cache-friendly mix on a
// fixed open-loop schedule once the hot shapes are cached: hits read
// the plan cache while the unique 15 % insert into it, and the cheap
// 6-hour window leaves routing, proxying, history slicing and digests,
// the cache and JSON as the cost.
//
// The workload runs on one P. Its per-request work is a chain of
// goroutine handoffs — client, router, proxy, backend and back — and
// across two Ps each handoff wakes the other vCPU, whose cost on a
// 2-vCPU VM flipped from run to run between about 0.14 and 0.23 ms of
// CPU per request; on one P it repeated within ±6 %.
func runQuoteHot(cfg config, res *Result) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var rec *recorder
	if cfg.traced() {
		rec = newRecorder(traceCapacity(cfg.hotRate*cfg.measure.Seconds()+float64(cfg.setups*(len(hotShapes())+hotWarmRequests)), 6))
	}
	hot := hotShapes()
	set := tracegen.HighVolatility(traceSeed)
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	uniq := newUniqueShapes(cfg.seed, 6, 2, hot)
	// A set-up caches the hot shapes one by one, then serves
	// hotWarmRequests of the mix.
	f, load, setups, err := setupFleet(cfg.setups, rec, func(l *quoteLoad) {
		var buf bytes.Buffer
		for _, b := range hot {
			l.send(0, 1, b, &buf)
		}
		l.closedLoop(time.Time{}, limit(hotWarmRequests, func() []byte {
			if rng.Float64() < hotFraction {
				return hot[rng.Intn(len(hot))]
			}
			return uniq.next()
		}), false, &outcomes{})
	})
	if err != nil {
		return err
	}
	defer f.stop()

	bodies, nHot := hotSchedule(rng, hot, uniq, int(cfg.hotRate*cfg.measure.Seconds()))
	hits0, misses0, coal0 := f.cacheCounts()
	var o outcomes
	p := beginPhase()
	elapsed := load.openLoop(bodies, cfg.hotRate, cfg.traced(), &o)
	res.addCommon(p, o.sent, setups)

	quoteResult(res, &o, elapsed, load.chk, &quote.StaticSource{Set: set})
	hits1, misses1, coal1 := f.cacheCounts()
	hits, lookups, coalesced := hits1-hits0, hits1+misses1-hits0-misses0, coal1-coal0
	ratio := float64(hits) / float64(max(lookups, 1))
	var mixErr error
	switch {
	case hits != int64(nHot) || lookups != int64(len(bodies)):
		mixErr = fmt.Errorf("%d hits in %d lookups, want %d in %d", hits, lookups, nHot, len(bodies))
	case math.Abs(ratio-hotFraction) > 0.02:
		mixErr = fmt.Errorf("hit ratio %.4f outside 0.85 ± 0.02", ratio)
	}
	res.check("hot shapes hit and unique shapes miss the plan cache", mixErr)
	if rec == nil {
		return nil
	}
	return finishTrace(cfg, res, rec, func(bench []span, program []obs.Span) {
		quoteLayers(res, bench, program, f, o.late, hits, lookups, coalesced)
		hotProbes(res, set, load.chk.samples)
	})
}

// quoteLayers splits each traced request into the layers it crossed.
// Per request, the client span covers the router span, which covers the
// proxy span, which covers the quoted handler span, which covers the
// history fetch and (on a miss) the program's quote.eval span; each
// layer's self time is its span minus the one it covers, and the
// client's self time is the gap no layer accounts for. The self times
// of one request add up to its end-to-end time.
func quoteLayers(res *Result, bench []span, program []obs.Span, f *fleet, late []float64, hits, lookups, coalesced int64) {
	type parts struct{ client, route, proxy, handle, history, eval int64 }
	byReq := map[uint64]*parts{}
	get := func(id uint64) *parts {
		p := byReq[id]
		if p == nil {
			p = &parts{}
			byReq[id] = p
		}
		return p
	}
	for _, s := range bench {
		if s.Req == 0 {
			continue
		}
		p := get(s.Req)
		switch s.Name {
		case "client":
			p.client += s.dur()
		case "cluster.route":
			p.route += s.dur()
		case "httpx.proxy":
			p.proxy += s.dur()
		case "quote.handle":
			p.handle += s.dur()
		case "quote.history":
			p.history += s.dur()
		}
	}
	reqs := programReqs(program)
	for i := range program {
		if s := &program[i]; s.Name == "quote.eval" {
			if id, ok := reqs[s.Trace]; ok {
				get(id).eval += s.End - s.Start
			}
		}
	}
	rows := []string{"gap (client self)", "cluster.route self", "httpx.proxy self", "quote.handle self", "quote.history", "quote.eval"}
	samples := map[string][]float64{}
	var total []float64
	for _, p := range byReq {
		if p.client == 0 || p.route == 0 || p.proxy == 0 || p.handle == 0 {
			continue // a warm-up request, or one whose spans were not all recorded
		}
		total = append(total, float64(p.client))
		for i, v := range []int64{p.client - p.route, p.route - p.proxy, p.proxy - p.handle, p.handle - p.history - p.eval, p.history, p.eval} {
			samples[rows[i]] = append(samples[rows[i]], float64(v))
		}
	}
	p50us := func(row string) float64 { return pct(sorted(samples[row]), 0.5) / 1e3 }
	n := len(total)
	res.layer("cluster.route_self_us_p50", p50us("cluster.route self"), n)
	res.layer("httpx.proxy_self_us_p50", p50us("httpx.proxy self"), n)
	res.layer("quote.handle_self_us_p50", p50us("quote.handle self"), n)
	res.layer("quote.history_us_p50", p50us("quote.history"), n)
	res.layer("bench.gap_ms_p50", p50us("gap (client self)")/1e3, n)
	res.layer("quote.cache_hit_ratio", float64(hits)/float64(max(lookups, 1)), int(lookups))
	res.layer("quote.coalesced", float64(coalesced), int(lookups))
	m := f.router.Stats()
	res.layer("cluster.failovers", float64(m.Failovers.Load()), int(m.Requests.Load()))
	res.layer("cluster.retries", float64(m.Retries.Load()), int(m.Requests.Load()))
	if len(late) > 0 {
		res.layer("client.late_ms_p99", pct(sorted(late), 0.99), len(late))
	}
	addSweepLayers(res, program)
	res.Breakdown = breakdown(total, rows, samples)
}
