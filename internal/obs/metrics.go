package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The fast path is one
// atomic add: lock-free and allocation-free. The zero value is ready to
// use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can move in both directions (e.g. in-flight
// requests). Like Counter, updates are single atomic operations. The
// zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// DefaultLatencyBounds are log-spaced latency histogram bucket upper
// bounds in seconds (0.5 ms – 60 s, plus an implicit +Inf bucket) — the
// buckets the quote service has always exposed.
var DefaultLatencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram with approximate quantiles
// (linear interpolation inside the winning bucket). Observe is
// lock-free and allocation-free: one atomic add per bucket, count and
// sum. Use NewHistogram; the zero value is not ready.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, updated by CAS
}

// NewHistogram returns an empty histogram over the given sorted bucket
// upper bounds (nil selects DefaultLatencyBounds).
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultLatencyBounds
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Quantile approximates the q-quantile (0 < q < 1); an empty histogram
// reports 0. Values in the overflow bucket report the last finite
// bound.
func (h *Histogram) Quantile(q float64) float64 {
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	var cum int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[len(h.bounds)-1]
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Snapshot returns the observation count and sum.
func (h *Histogram) Snapshot() (count int64, sum float64) {
	return h.count.Load(), math.Float64frombits(h.sumBits.Load())
}

// Registry renders a set of metrics in the Prometheus text exposition
// format, in registration order, so an exposition migrated from
// hand-written Fprintf lines stays byte-identical. Metrics are owned by
// their callers (typically struct fields) and registered by pointer;
// the registry only formats. The zero value is ready to use; a Registry
// is safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	items []func(io.Writer)
}

// Counter registers c to render as "name value".
func (r *Registry) Counter(name string, c *Counter) {
	r.add(func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", name, c.Load()) })
}

// Gauge registers g to render as "name value".
func (r *Registry) Gauge(name string, g *Gauge) {
	r.add(func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", name, g.Load()) })
}

// Histogram registers h to render as quantile series plus _count and
// _sum lines under the given family name. A non-empty labelKey/labelVal
// pair is attached to every line (e.g. stage="eval"), matching the
// quote service's historical exposition.
func (r *Registry) Histogram(name, labelKey, labelVal string, quantiles []float64, h *Histogram) {
	r.add(func(w io.Writer) {
		for _, q := range quantiles {
			if labelKey != "" {
				fmt.Fprintf(w, "%s{%s=%q,quantile=\"%g\"} %g\n", name, labelKey, labelVal, q, h.Quantile(q))
			} else {
				fmt.Fprintf(w, "%s{quantile=\"%g\"} %g\n", name, q, h.Quantile(q))
			}
		}
		count, sum := h.Snapshot()
		if labelKey != "" {
			fmt.Fprintf(w, "%s_count{%s=%q} %d\n", name, labelKey, labelVal, count)
			fmt.Fprintf(w, "%s_sum{%s=%q} %g\n", name, labelKey, labelVal, sum)
		} else {
			fmt.Fprintf(w, "%s_count %d\n", name, count)
			fmt.Fprintf(w, "%s_sum %g\n", name, sum)
		}
	})
}

// add appends one renderer under the lock.
func (r *Registry) add(f func(io.Writer)) {
	r.mu.Lock()
	r.items = append(r.items, f)
	r.mu.Unlock()
}

// Render writes every registered metric in registration order.
func (r *Registry) Render(w io.Writer) {
	r.mu.Lock()
	items := r.items
	r.mu.Unlock()
	for _, f := range items {
		f(w)
	}
}
