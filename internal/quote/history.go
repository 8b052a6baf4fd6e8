package quote

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

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

// History implements HistorySource over the streamer's tape, so
// one-shot quotes price the same market the stream does: the trailing
// window seconds of the streamer's window (clamped to what it holds),
// digested by Digest. The returned set slices the tape's columns
// without copying them; the tape never rewrites a sample it holds (it
// trims and restarts into fresh columns), so the set stays valid. A
// one-shot served while the tape is Stale counts a feed stale serve on
// the attached service Metrics, and the first of each stall also counts
// a watchdog trip.
func (st *Streamer) History(_ context.Context, window int64) (*trace.Set, string, error) {
	st.init()
	st.mu.Lock()
	if st.staleLocked() {
		st.Metrics.svc.FeedStaleServes.Add(1)
		if !st.tripped {
			st.Metrics.svc.WatchdogTrips.Add(1)
			st.tripped = true
		}
	}
	var set *trace.Set
	if st.tape != nil {
		set = st.tape.Set()
	}
	win, err := tailWindow(set, window) // slices the tape's view, under the lock
	st.mu.Unlock()
	if err != nil {
		return nil, "", err
	}
	return win, Digest(win), nil
}
