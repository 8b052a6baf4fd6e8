// Package quote is the planning front-end of the repository: an HTTP
// JSON service that answers "I have W hours of work and a deadline D —
// what should I bid, in how many zones, under which checkpoint policy?"
// by replaying every (bid, zones, policy) permutation over recent spot
// price history on the core.Evaluator and serving the ranked plan
// table.
//
// The service is production-shaped: request validation, an LRU plan
// cache keyed by (history digest, request), singleflight coalescing of
// identical in-flight requests, bounded evaluation concurrency through
// a pool.Gate, and /metrics + /healthz endpoints. Because evaluation is
// deterministic (fixed estimation seed, order-preserving fan-out),
// identical requests over identical history return byte-identical
// bodies whether computed, coalesced or served from cache.
package quote

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/url"
	"strconv"

	"repro/internal/market"
)

// Request defaults and limits. The caps keep a hostile request from
// turning one evaluation into an unbounded amount of work: work and
// window sizes bound the replay length, MaxZonesLimit bounds the
// permutation grid.
const (
	// DefaultOnDemandPrice is the paper's CC2 on-demand rate.
	DefaultOnDemandPrice = market.OnDemandRate
	// DefaultMaxZones is the paper's redundancy bound.
	DefaultMaxZones = 3
	// DefaultTop is the number of ranked plans returned.
	DefaultTop = 5
	// MaxWorkHours bounds the job size a quote may describe.
	MaxWorkHours = 24 * 365
	// MaxDeadlineHours bounds the deadline horizon.
	MaxDeadlineHours = 10 * 24 * 365
	// MaxHistoryWindowHours bounds the replayed history span.
	MaxHistoryWindowHours = 24 * 90
	// MaxZonesLimit bounds the requested redundancy degree.
	MaxZonesLimit = 8
	// MaxTop bounds the ranked plans returned.
	MaxTop = 100
	// MaxOnDemandPrice bounds the hourly on-demand rate.
	MaxOnDemandPrice = 1000
	// MaxBodyBytes bounds the accepted request body.
	MaxBodyBytes = 1 << 20
)

// Request is one planning question, and the one request shape of the
// service: a one-shot quote decodes it from a JSON body, a stream
// subscription parses it from a query string (see ParseQuery), and
// both share one Normalize, one field-range check and one Key.
// Zero-valued optional fields select the documented defaults.
type Request struct {
	// WorkHours is the uninterrupted computation time W in hours.
	WorkHours float64 `json:"work_hours"`
	// DeadlineHours is the completion budget D in hours; it must be at
	// least WorkHours or not even an immediate on-demand run finishes.
	DeadlineHours float64 `json:"deadline_hours"`
	// OnDemandPrice is the hourly on-demand fallback price in dollars;
	// 0 selects DefaultOnDemandPrice.
	OnDemandPrice float64 `json:"on_demand_price"`
	// HistoryWindowHours is how much trailing price history the
	// permutations are replayed over. It is required for one-shot
	// quotes, where an empty window gives the evaluator nothing to
	// measure, and zero on the stream path, where the feed's retained
	// backlog is the window.
	HistoryWindowHours float64 `json:"history_window"`
	// MaxZones bounds the redundancy degree N; 0 selects
	// DefaultMaxZones.
	MaxZones int `json:"max_zones,omitempty"`
	// Top is how many ranked plans the response carries (best +
	// alternatives); 0 selects DefaultTop.
	Top int `json:"top,omitempty"`
}

// DecodeRequest reads one JSON request from r, rejecting unknown
// fields, oversized bodies and trailing garbage.
func DecodeRequest(r io.Reader) (Request, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Request{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	if dec.More() {
		return Request{}, fmt.Errorf("%w: trailing data after request object", ErrInvalidRequest)
	}
	return req, nil
}

// ParseQuery reads a planning question from URL query parameters, the
// stream endpoint's request form: work_hours and deadline_hours
// (required by validation), on_demand_price, max_zones and top
// (optional). history_window is not read: on the stream path the feed
// supplies the window. Other parameters (mode, gen, timeout_ms) are
// the caller's to read.
func ParseQuery(q url.Values) (Request, error) {
	var req Request
	var err error
	num := func(name string, dst *float64) {
		if s := q.Get(name); s != "" && err == nil {
			var perr error
			if *dst, perr = strconv.ParseFloat(s, 64); perr != nil {
				err = invalidf("%s: %v", name, perr)
			}
		}
	}
	count := func(name string, dst *int) {
		if s := q.Get(name); s != "" && err == nil {
			var perr error
			if *dst, perr = strconv.Atoi(s); perr != nil {
				err = invalidf("%s: %v", name, perr)
			}
		}
	}
	num("work_hours", &req.WorkHours)
	num("deadline_hours", &req.DeadlineHours)
	num("on_demand_price", &req.OnDemandPrice)
	count("max_zones", &req.MaxZones)
	count("top", &req.Top)
	return req, err
}

// Normalize fills defaulted fields in place; call it before Validate.
func (r *Request) Normalize() {
	if r.OnDemandPrice == 0 {
		r.OnDemandPrice = DefaultOnDemandPrice
	}
	if r.MaxZones == 0 {
		r.MaxZones = DefaultMaxZones
	}
	if r.Top == 0 {
		r.Top = DefaultTop
	}
}

// ErrInvalidRequest marks client-side errors (malformed or
// out-of-range requests); the HTTP layer maps it to 400.
var ErrInvalidRequest = errors.New("quote: invalid request")

// ErrHistory marks history-source failures; the HTTP layer maps it to
// 502.
var ErrHistory = errors.New("quote: history source failed")

// invalidf builds an ErrInvalidRequest with detail.
func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidRequest, fmt.Sprintf(format, args...))
}

// Validate reports whether a normalized one-shot request is
// well-formed and within the service's limits, history window
// included.
func (r Request) Validate() error {
	if err := r.checkFields(); err != nil {
		return err
	}
	h := r.HistoryWindowHours
	if math.IsNaN(h) || math.IsInf(h, 0) {
		return invalidf("history_window must be finite")
	}
	if h <= 0 {
		return invalidf("history_window must be positive, got %g", h)
	}
	if h > MaxHistoryWindowHours {
		return invalidf("history_window %g exceeds limit %d", h, MaxHistoryWindowHours)
	}
	return nil
}

// validateStream reports whether a normalized request is a valid
// stream shape: the one-shot field ranges, and no history window,
// because the feed's retention is the window.
func (r Request) validateStream() error {
	if r.HistoryWindowHours != 0 {
		return invalidf("history_window must be 0 on the stream path (the feed is the window), got %g", r.HistoryWindowHours)
	}
	return r.checkFields()
}

// checkFields is the range check one-shot quotes and stream shapes
// share: every field but the history window.
func (r Request) checkFields() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"work_hours", r.WorkHours},
		{"deadline_hours", r.DeadlineHours},
		{"on_demand_price", r.OnDemandPrice},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return invalidf("%s must be finite", f.name)
		}
	}
	if r.WorkHours <= 0 {
		return invalidf("work_hours must be positive, got %g", r.WorkHours)
	}
	if r.WorkHours > MaxWorkHours {
		return invalidf("work_hours %g exceeds limit %d", r.WorkHours, MaxWorkHours)
	}
	if r.DeadlineHours < r.WorkHours {
		return invalidf("deadline_hours %g is below work_hours %g: not schedulable even on-demand", r.DeadlineHours, r.WorkHours)
	}
	if r.DeadlineHours > MaxDeadlineHours {
		return invalidf("deadline_hours %g exceeds limit %d", r.DeadlineHours, MaxDeadlineHours)
	}
	if r.OnDemandPrice < 0 {
		return invalidf("on_demand_price must not be negative, got %g", r.OnDemandPrice)
	}
	if r.OnDemandPrice > MaxOnDemandPrice {
		return invalidf("on_demand_price %g exceeds limit %d", r.OnDemandPrice, MaxOnDemandPrice)
	}
	if r.MaxZones < 0 || r.MaxZones > MaxZonesLimit {
		return invalidf("max_zones must be in [1, %d], got %d", MaxZonesLimit, r.MaxZones)
	}
	if r.Top < 0 || r.Top > MaxTop {
		return invalidf("top must be in [1, %d], got %d", MaxTop, r.Top)
	}
	return nil
}

// Key returns the canonical key of a normalized request: every field
// that influences the response body, in fixed order. It keys the plan
// cache and, with a zero window, the streamer's resident shapes.
func (r Request) Key() string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return "w=" + g(r.WorkHours) +
		"|d=" + g(r.DeadlineHours) +
		"|od=" + g(r.OnDemandPrice) +
		"|h=" + g(r.HistoryWindowHours) +
		"|z=" + strconv.Itoa(r.MaxZones) +
		"|t=" + strconv.Itoa(r.Top)
}

// CacheKey is the canonical plan-cache key: the history digest joined
// with the normalized request's Key. It is the single definition both
// the service's LRU cache and any front-door router must share — a
// router that partitions traffic on a different key silently halves
// every backend cache.
func CacheKey(digest string, r Request) string {
	return digest + "|" + r.Key()
}

// AffinityKey hashes the normalized request's canonical Key with
// FNV-64a. A cluster router uses it to pin identical quote requests to
// one backend, so the backend's plan cache sees every repeat of a
// request shape; because it is derived from the same canonical Key that
// keys the cache, router affinity and cache identity agree by
// construction. The history digest is deliberately excluded: the router
// has no history, and all backends of one fleet serve the same feed.
func (r Request) AffinityKey() uint64 {
	h := fnv.New64a()
	io.WriteString(h, r.Key())
	return h.Sum64()
}

// Plan is one ranked (bid, zones, policy) permutation on the wire.
type Plan struct {
	// Bid is the spot bid in dollars per hour.
	Bid float64 `json:"bid"`
	// Zones are the availability zones the plan runs in.
	Zones []string `json:"zones"`
	// Policy is the checkpoint policy family.
	Policy string `json:"policy"`
	// PredictedCost is the predicted remaining cost in dollars.
	PredictedCost float64 `json:"predicted_cost_usd"`
	// CostRatePerHour is the measured spend rate over the history
	// window in dollars per hour.
	CostRatePerHour float64 `json:"cost_rate_usd_per_hour"`
	// ProgressRate is work-seconds completed per wall-clock second.
	ProgressRate float64 `json:"progress_rate"`
	// PredictedFinishHours is the predicted completion time in hours.
	PredictedFinishHours float64 `json:"predicted_finish_hours"`
	// DeadlineMarginHours is DeadlineHours − PredictedFinishHours.
	DeadlineMarginHours float64 `json:"deadline_margin_hours"`
}

// HistoryInfo describes the price history a quote was computed from.
type HistoryInfo struct {
	// Zones are the availability zones of the history.
	Zones []string `json:"zones"`
	// Samples is the number of price samples per zone.
	Samples int `json:"samples"`
	// WindowHours is the actual history span served (the requested
	// window clamped to what the source holds).
	WindowHours float64 `json:"window_hours"`
	// Digest identifies the exact samples; responses with equal digests
	// and equal requests are byte-identical.
	Digest string `json:"digest"`
}

// Response is the ranked plan table for one request.
type Response struct {
	// Best is the least-predicted-cost plan.
	Best Plan `json:"best"`
	// Alternatives are the runner-up plans, best-first.
	Alternatives []Plan `json:"alternatives"`
	// OnDemandCost is the reference cost of running the whole job
	// on-demand at the request's rate.
	OnDemandCost float64 `json:"on_demand_cost_usd"`
	// Evaluated counts the permutations replayed for this quote.
	Evaluated int `json:"evaluated_permutations"`
	// History describes the replayed price window.
	History HistoryInfo `json:"history"`
}
