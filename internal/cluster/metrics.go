package cluster

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/obs"
)

// Metrics aggregates the router's counters and routing latency on the
// obs registry. Use NewMetrics; the zero value is not ready.
type Metrics struct {
	// Requests counts requests reaching the router.
	Requests obs.Counter
	// BadRequests counts requests rejected before routing (malformed
	// body).
	BadRequests obs.Counter
	// QuotaRejected counts requests rejected by per-tenant admission
	// control with 429 — the dedicated quota-exhaustion metric.
	QuotaRejected obs.Counter
	// Routed counts requests answered by a backend.
	Routed obs.Counter
	// Failovers counts forward attempts beyond a request's first.
	Failovers obs.Counter
	// Ejections counts backend breaker opens — a backend leaving the
	// routable set.
	Ejections obs.Counter
	// Probes counts requests forwarded to an ejected backend as its
	// half-open probe.
	Probes obs.Counter
	// Readmissions counts probes that succeeded and closed a backend's
	// breaker.
	Readmissions obs.Counter
	// Unroutable counts requests that exhausted every backend (503).
	Unroutable obs.Counter
	// Retries counts budget tokens spent on failovers and hedges (0
	// when no retry budget is configured).
	Retries obs.Counter
	// RetrySuppressed counts failovers and hedges the retry budget
	// refused — bounded extra work doing its job under overload.
	RetrySuppressed obs.Counter
	// Hedges counts speculative second attempts launched because the
	// first exceeded the hedge latency threshold.
	Hedges obs.Counter

	latency *obs.Histogram // whole routing decision + forward latency

	reg obs.Registry
}

// routerQuantiles reported on /metrics.
var routerQuantiles = []float64{0.5, 0.9, 0.99}

// NewMetrics returns a ready Metrics.
func NewMetrics() *Metrics {
	m := &Metrics{latency: obs.NewHistogram(nil)}
	m.reg.Counter("quotelb_requests_total", &m.Requests)
	m.reg.Counter("quotelb_bad_requests_total", &m.BadRequests)
	m.reg.Counter("quotelb_quota_rejected_total", &m.QuotaRejected)
	m.reg.Counter("quotelb_routed_total", &m.Routed)
	m.reg.Counter("quotelb_failovers_total", &m.Failovers)
	m.reg.Counter("quotelb_ejections_total", &m.Ejections)
	m.reg.Counter("quotelb_probes_total", &m.Probes)
	m.reg.Counter("quotelb_readmissions_total", &m.Readmissions)
	m.reg.Counter("quotelb_unroutable_total", &m.Unroutable)
	m.reg.Counter("quotelb_retries_total", &m.Retries)
	m.reg.Counter("quotelb_retry_suppressed_total", &m.RetrySuppressed)
	m.reg.Counter("quotelb_hedges_total", &m.Hedges)
	m.reg.Histogram("quotelb_latency_seconds", "stage", "route", routerQuantiles, m.latency)
	return m
}

// registerBackends adds per-backend gauges and counters, labelled by
// backend name, in fleet order.
func (m *Metrics) registerBackends(backends []*Backend) {
	for _, b := range backends {
		m.reg.Gauge(fmt.Sprintf("quotelb_backend_in_flight{backend=%q}", b.Name), &b.inflight)
		m.reg.Counter(fmt.Sprintf("quotelb_backend_served_total{backend=%q}", b.Name), &b.served)
		m.reg.Counter(fmt.Sprintf("quotelb_backend_failures_total{backend=%q}", b.Name), &b.failures)
	}
}

// registerTenants adds per-tenant quota-rejection counters (configured
// tenants in sorted order, then the shared default bucket).
func (m *Metrics) registerTenants(l *Limiter) {
	if l == nil {
		return
	}
	l.init()
	names := make([]string, 0, len(l.buckets))
	for name := range l.buckets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m.reg.Counter(fmt.Sprintf("quotelb_tenant_rejected_total{tenant=%q}", name), &l.buckets[name].rejected)
	}
	m.reg.Counter(`quotelb_tenant_rejected_total{tenant="default"}`, &l.def.rejected)
}

// Render writes the metrics in Prometheus text exposition style.
func (m *Metrics) Render(w io.Writer) { m.reg.Render(w) }
