package quote

import (
	"io"

	"repro/internal/obs"
)

// Metrics aggregates the service's counters and per-stage latency
// histograms on the obs registry. All fields are safe for concurrent
// use; the zero value is not ready — use NewMetrics.
type Metrics struct {
	// Requests counts quote requests accepted for processing.
	Requests obs.Counter
	// ValidationErrors counts requests rejected by decode/validation.
	ValidationErrors obs.Counter
	// HistoryErrors counts history-source failures.
	HistoryErrors obs.Counter
	// EvalErrors counts evaluation failures.
	EvalErrors obs.Counter
	// CacheHits and CacheMisses count plan-cache lookups.
	CacheHits   obs.Counter
	CacheMisses obs.Counter
	// Coalesced counts requests served by joining another request's
	// in-flight evaluation.
	Coalesced obs.Counter
	// InFlight gauges quote requests currently being processed.
	InFlight obs.Gauge
	// FeedStaleServes counts one-shot histories served from a feed's
	// tape while it was stale (no tick within Streamer.StaleAfter).
	FeedStaleServes obs.Counter
	// WatchdogTrips counts feed stalls: one per stall that a one-shot
	// history served from the tape observed.
	WatchdogTrips obs.Counter

	history *obs.Histogram // history-fetch stage latency
	eval    *obs.Histogram // evaluation stage latency
	total   *obs.Histogram // whole-request latency

	reg obs.Registry
}

// quantiles reported on /metrics.
var metricQuantiles = []float64{0.5, 0.9, 0.99}

// NewMetrics returns a ready Metrics. Registration order mirrors the
// historical hand-written exposition, which a golden test pins
// byte-for-byte.
func NewMetrics() *Metrics {
	m := &Metrics{
		history: obs.NewHistogram(nil),
		eval:    obs.NewHistogram(nil),
		total:   obs.NewHistogram(nil),
	}
	m.reg.Counter("quoted_requests_total", &m.Requests)
	m.reg.Counter("quoted_validation_errors_total", &m.ValidationErrors)
	m.reg.Counter("quoted_history_errors_total", &m.HistoryErrors)
	m.reg.Counter("quoted_eval_errors_total", &m.EvalErrors)
	m.reg.Counter("quoted_cache_hits_total", &m.CacheHits)
	m.reg.Counter("quoted_cache_misses_total", &m.CacheMisses)
	m.reg.Counter("quoted_coalesced_total", &m.Coalesced)
	m.reg.Gauge("quoted_in_flight", &m.InFlight)
	m.reg.Counter("quoted_feed_stale_serves_total", &m.FeedStaleServes)
	m.reg.Counter("quoted_watchdog_trips_total", &m.WatchdogTrips)
	m.reg.Histogram("quoted_latency_seconds", "stage", "history", metricQuantiles, m.history)
	m.reg.Histogram("quoted_latency_seconds", "stage", "eval", metricQuantiles, m.eval)
	m.reg.Histogram("quoted_latency_seconds", "stage", "total", metricQuantiles, m.total)
	return m
}

// Render writes the metrics in Prometheus text exposition style.
func (m *Metrics) Render(w io.Writer) {
	m.reg.Render(w)
}
