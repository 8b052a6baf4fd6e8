package quote

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// NewStreamingHandler returns the service's HTTP API:
//
//	POST /v1/quote   — plan request (JSON body) → ranked plan table
//	GET  /healthz    — liveness probe ("ok")
//	GET  /metrics    — counters and latency quantiles (text)
//
// Quote responses carry an X-Quote-Cache header (miss, hit or
// coalesced); the body itself is byte-identical however it was served.
// When st is non-nil it adds the push API:
//
//	GET /v1/quotes/stream — SSE (or ?mode=poll long-poll) plan pushes
//
// See registerStream for the streaming wire contract.
func NewStreamingHandler(s *Service, st *Streamer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/quote", func(w http.ResponseWriter, r *http.Request) {
		req, err := DecodeRequest(r.Body)
		if err != nil {
			s.Stats().ValidationErrors.Add(1)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		body, status, err := s.Quote(r.Context(), req)
		if err != nil {
			code := errorCode(r.Context(), err)
			if code == http.StatusServiceUnavailable {
				// The client's context ended before its evaluation did:
				// tell the caller when to come back; the cluster
				// router's retry budget honors this.
				w.Header().Set("Retry-After", "1")
			}
			writeError(w, code, err)
			return
		}
		obs.FromContext(r.Context()).SetAttr("cache", string(status))
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(body)))
		h.Set("X-Quote-Cache", string(status))
		w.Write(body)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.Stats().Render(w)
	})
	if st != nil {
		registerStream(mux, st)
	}
	return mux
}

// errorCode maps service errors to HTTP statuses.
func errorCode(ctx context.Context, err error) int {
	switch {
	case errors.Is(err, ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrHistory):
		return http.StatusBadGateway
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or timed out mid-evaluation.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError sends the JSON error envelope with the given status.
func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}
