package quote

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/spotapi"
	"repro/internal/trace"
)

// HistorySource supplies the trailing price history quotes are
// computed from. Implementations must be safe for concurrent use.
type HistorySource interface {
	// History returns at most the trailing window seconds of price
	// history (clamped to what the source holds) together with a digest
	// identifying the exact samples returned.
	History(ctx context.Context, window int64) (*trace.Set, string, error)
}

// Digest fingerprints a trace.Set — step, zone names and every price
// sample — as a short hex string. Equal digests mean the evaluator saw
// identical inputs, which (with the deterministic evaluation core)
// means identical plans.
func Digest(set *trace.Set) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(set.Step()))
	for _, s := range set.Series {
		h.Write([]byte(s.Zone))
		h.Write([]byte{0})
		put(uint64(s.Epoch))
		for _, p := range s.Prices {
			put(math.Float64bits(p))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// tailWindow slices the trailing window seconds off a set, clamping to
// the set's span. An empty set is the source's failure; a window too
// short to hold two of a non-empty set's samples is the client's, an
// ErrInvalidRequest.
func tailWindow(set *trace.Set, window int64) (*trace.Set, error) {
	if set == nil || set.NumZones() == 0 || set.Duration() <= 0 {
		return nil, errors.New("quote: history source holds no samples")
	}
	from := set.End() - window
	if from < set.Start() {
		from = set.Start()
	}
	win := set.Slice(from, set.End())
	if win.Duration() <= 0 || win.Series[0].Len() < 2 {
		return nil, invalidf("history_window of %d s holds fewer than two samples %d s apart", window, set.Step())
	}
	return win, nil
}

// StaticSource serves windows of a fixed in-memory trace — synthetic
// histories from internal/tracegen, or a recorded file.
type StaticSource struct {
	// Set is the full history; windows are sliced off its tail.
	Set *trace.Set
}

// History implements HistorySource.
func (s *StaticSource) History(_ context.Context, window int64) (*trace.Set, string, error) {
	win, err := tailWindow(s.Set, window)
	if err != nil {
		return nil, "", err
	}
	return win, Digest(win), nil
}

// FeedSource pulls history from a spotapi endpoint (cmd/pricefeedd, or
// anything speaking the AWS DescribeSpotPriceHistory format) and caches
// the fetched set for TTL so a burst of quote requests costs one
// upstream fetch. Transient upstream failures are retried on the shared
// capped-backoff schedule; a persistently dead upstream degrades to the
// last fetched set (counted, and watchdogged once its age passes
// MaxStale) rather than failing quotes outright.
type FeedSource struct {
	// Client fetches the history.
	Client *spotapi.Client
	// TTL is how long a fetched set is reused; 0 selects 10 s.
	TTL time.Duration
	// Attempts bounds fetch tries per refresh; 0 selects 3.
	Attempts int
	// Backoff is the retry schedule between tries; the zero value
	// selects a 100 ms base capped at 2 s.
	Backoff faults.Backoff
	// MaxStale is the staleness watchdog bound: serving a cached set
	// older than this counts a watchdog trip in Stats. 0 selects
	// 10×TTL.
	MaxStale time.Duration
	// Stats, when set, receives degradation counters (stale serves and
	// watchdog trips). Wire it to the service's Metrics so /metrics
	// shows feed degradation.
	Stats *Metrics

	mu        sync.Mutex
	fetchedAt time.Time
	set       *trace.Set
}

// History implements HistorySource.
func (f *FeedSource) History(ctx context.Context, window int64) (*trace.Set, string, error) {
	set, err := f.fetch(ctx)
	if err != nil {
		return nil, "", err
	}
	win, err := tailWindow(set, window)
	if err != nil {
		return nil, "", err
	}
	return win, Digest(win), nil
}

// fetch returns the cached set or refreshes it past the TTL. The lock
// is held across the fetch so concurrent callers coalesce onto one
// upstream request.
func (f *FeedSource) fetch(ctx context.Context) (*trace.Set, error) {
	ttl := f.TTL
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.set != nil && time.Since(f.fetchedAt) < ttl {
		return f.set, nil
	}
	set, err := f.fetchWithRetry(ctx)
	if err != nil {
		if f.set != nil {
			// Serve the stale window rather than failing the quote; the
			// digest keys the cache, so staleness is visible, not wrong.
			if f.Stats != nil {
				f.Stats.FeedStaleServes.Add(1)
				maxStale := f.MaxStale
				if maxStale <= 0 {
					maxStale = 10 * ttl
				}
				if time.Since(f.fetchedAt) > maxStale {
					f.Stats.WatchdogTrips.Add(1)
				}
			}
			return f.set, nil
		}
		return nil, err
	}
	f.set = set
	f.fetchedAt = time.Now()
	return set, nil
}

// fetchWithRetry tries the upstream up to Attempts times on the shared
// backoff schedule, honouring context cancellation between tries.
func (f *FeedSource) fetchWithRetry(ctx context.Context) (*trace.Set, error) {
	attempts := f.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	b := f.Backoff
	if b.Base <= 0 {
		b.Base = 100 * time.Millisecond
	}
	if b.Cap <= 0 {
		b.Cap = 2 * time.Second
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		set, _, err := f.Client.Fetch(ctx, time.Time{}, time.Time{}, trace.DefaultStep)
		if err == nil {
			return set, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		lastErr = err
		if attempt+1 < attempts {
			if serr := faults.Sleep(ctx, b.Delay(attempt)); serr != nil {
				return nil, serr
			}
		}
	}
	return nil, lastErr
}
