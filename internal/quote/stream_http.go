package quote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Long-poll bounds.
const (
	defaultPollTimeout = 30 * time.Second
	maxPollTimeout     = 60 * time.Second
)

// registerStream mounts the streaming endpoint:
//
//	GET /v1/quotes/stream?work_hours=6&deadline_hours=18
//
// Default mode is Server-Sent Events: the current plan table is pushed
// immediately, then one `plan` event per plan-table generation and
// periodic `heartbeat` events carrying the staleness flag. With
// ?mode=poll&gen=N the endpoint long-polls instead: it answers as soon
// as the shape's generation exceeds N (204 on timeout). Every response
// carries X-Plan-Generation; X-Quote-Stale: true flags a stalled feed,
// during which the last generation keeps serving.
//
// Reconnecting SSE clients resume with the standard Last-Event-ID
// header (the id: field of every frame carries the generation) or an
// explicit ?gen=N: events at or below that generation are suppressed,
// and announced generations are floored at it, so across a disconnect
// — even one that fails over to a backend whose evaluator is slightly
// behind — the client-visible generation sequence stays monotonic. A
// shape's table and tick are a deterministic function of the feed (the
// streamer's window); its generation is not — it counts the changes
// the shape has published on that backend since it subscribed there
// (or since the checkpoint it resumed from). Backends that created a
// shape at different times can therefore announce one table under
// different generations, and on such a failover the floor also
// suppresses fresh tables until the new backend's generation passes
// it.
func registerStream(mux *http.ServeMux, st *Streamer) {
	mux.HandleFunc("GET /v1/quotes/stream", func(w http.ResponseWriter, r *http.Request) {
		req, err := ParseQuery(r.URL.Query())
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		since, err := resumeFloor(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		sub, err := st.Subscribe(req)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrStreamCapacity) {
				code = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, code, err)
			return
		}
		defer sub.Close()
		if r.URL.Query().Get("mode") == "poll" {
			st.servePoll(w, r, sub, since)
			return
		}
		st.serveSSE(w, r, sub, since)
	})
}

// resumeFloor reads the client's resume generation: the SSE standard
// Last-Event-ID reconnect header when present (ignored if malformed —
// it is advisory), otherwise the explicit ?gen=N parameter (a 400 when
// malformed — the caller asked for something specific).
func resumeFloor(r *http.Request) (uint64, error) {
	if s := r.Header.Get("Last-Event-ID"); s != "" {
		if v, err := strconv.ParseUint(s, 10, 64); err == nil {
			return v, nil
		}
	}
	if s := r.URL.Query().Get("gen"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, invalidf("gen: %v", err)
		}
		return v, nil
	}
	return 0, nil
}

// serveSSE pushes plan events until the client disconnects. since is
// the resume floor: generations the client already holds.
func (st *Streamer) serveSSE(w http.ResponseWriter, r *http.Request, sub *StreamSub, since uint64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("quote: response writer cannot stream"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	snap := sub.Snapshot()
	gen := since
	if snap != nil && snap.Generation > gen {
		gen = snap.Generation
	}
	h.Set("X-Plan-Generation", strconv.FormatUint(gen, 10))
	stale := st.Stale()
	if stale {
		h.Set("X-Quote-Stale", "true")
	}
	w.WriteHeader(http.StatusOK)
	if snap != nil && snap.Generation > since {
		ev := *snap
		ev.Stale = stale
		writeSSE(w, "plan", &ev)
	}
	fl.Flush()
	hb := time.NewTicker(st.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sub.Events():
			if ev.Generation <= since {
				continue // the client already holds this table
			}
			writeSSE(w, "plan", ev)
			fl.Flush()
			st.Metrics.ObservePush(time.Since(ev.born))
		case <-hb.C:
			// Heartbeats re-announce the last generation so a stalled
			// feed is visible (stale flag) without new computation; the
			// announcement is floored at the client's resume point so
			// generations never appear to regress across reconnects.
			g := st.Generation(sub)
			if g < since {
				g = since
			}
			writeSSE(w, "heartbeat", &StreamEvent{Generation: g, Stale: st.Stale()})
			fl.Flush()
		}
	}
}

// writeSSE frames one event (json.Marshal output has no raw newlines,
// so a single data: line suffices).
func writeSSE(w http.ResponseWriter, event string, ev *StreamEvent) {
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Generation, event, data)
}

// pollTimeout parses the long-poll timeout_ms parameter: empty selects
// defaultPollTimeout, and a positive integer is clamped to
// maxPollTimeout in milliseconds, before scaling, so a huge value
// cannot overflow into a negative or tiny duration.
func pollTimeout(s string) (time.Duration, error) {
	if s == "" {
		return defaultPollTimeout, nil
	}
	ms, err := strconv.Atoi(s)
	if err != nil || ms <= 0 {
		return 0, invalidf("timeout_ms must be a positive integer")
	}
	if limit := int(maxPollTimeout / time.Millisecond); ms > limit {
		ms = limit
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// servePoll answers one long-poll round: the newest event past the
// client's generation, or 204 after the timeout.
func (st *Streamer) servePoll(w http.ResponseWriter, r *http.Request, sub *StreamSub, since uint64) {
	timeout, err := pollTimeout(r.URL.Query().Get("timeout_ms"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if ev := st.Latest(sub); ev != nil && ev.Generation > since {
		st.writePollEvent(w, ev)
		return
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-sub.Events():
			if ev.Generation <= since {
				continue
			}
			st.writePollEvent(w, ev)
			st.Metrics.ObservePush(time.Since(ev.born))
			return
		case <-timer.C:
			h := w.Header()
			h.Set("X-Plan-Generation", strconv.FormatUint(st.Generation(sub), 10))
			if st.Stale() {
				h.Set("X-Quote-Stale", "true")
			}
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
}

// writePollEvent sends one event as a plain JSON response.
func (st *Streamer) writePollEvent(w http.ResponseWriter, ev *StreamEvent) {
	body, err := json.Marshal(ev)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)+1))
	h.Set("X-Plan-Generation", strconv.FormatUint(ev.Generation, 10))
	if st.Stale() {
		h.Set("X-Quote-Stale", "true")
	}
	w.Write(body)
	w.Write([]byte("\n"))
}
