package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestCounterGauge exercises the basic counter and gauge operations.
func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	var g Gauge
	g.Add(5)
	g.Add(-2)
	if got := g.Load(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
}

// TestFastPathZeroAlloc pins the acceptance bar: the counter, gauge and
// histogram fast paths must not allocate.
func TestFastPathZeroAlloc(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(100, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v per op, want 0", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(100, func() { g.Add(-1) }); n != 0 {
		t.Errorf("Gauge.Add allocates %v per op, want 0", n)
	}
	h := NewHistogram(nil)
	if n := testing.AllocsPerRun(100, func() { h.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op, want 0", n)
	}
}

// TestHistogramQuantile checks the interpolation against hand-computed
// values (one observation in the (0.0025, 0.005] bucket).
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(nil)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	h.Observe(0.003)
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 0.00375},
		{0.9, 0.00475},
		{0.99, 0.004975},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	count, sum := h.Snapshot()
	if count != 1 || math.Abs(sum-0.003) > 1e-12 {
		t.Fatalf("snapshot = (%d, %g), want (1, 0.003)", count, sum)
	}
}

// TestHistogramOverflow checks values beyond the last bound land in the
// overflow bucket and quantiles saturate at the last finite bound.
func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(1e6)
	last := DefaultLatencyBounds[len(DefaultLatencyBounds)-1]
	if got := h.Quantile(0.5); got != last {
		t.Fatalf("overflow quantile = %g, want %g", got, last)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race this certifies the lock-free paths, and the totals
// must balance.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	count, sum := h.Snapshot()
	if count != workers*per {
		t.Fatalf("count = %d, want %d", count, workers*per)
	}
	if math.Abs(sum-float64(workers*per)*0.01) > 1e-6 {
		t.Fatalf("sum = %g, want %g", sum, float64(workers*per)*0.01)
	}
}

// TestRegistryRenderOrder checks metrics render in registration order
// with the exact exposition syntax.
func TestRegistryRenderOrder(t *testing.T) {
	var r Registry
	var a, b Counter
	var g Gauge
	h := NewHistogram(nil)
	r.Counter("x_total", &a)
	r.Gauge("x_in_flight", &g)
	r.Counter("y_total", &b)
	r.Histogram("x_latency_seconds", "stage", "eval", []float64{0.5}, h)
	a.Add(1)
	b.Add(2)
	g.Add(3)
	h.Observe(0.003)

	var buf bytes.Buffer
	r.Render(&buf)
	want := strings.Join([]string{
		"x_total 1",
		"x_in_flight 3",
		"y_total 2",
		`x_latency_seconds{stage="eval",quantile="0.5"} 0.00375`,
		`x_latency_seconds_count{stage="eval"} 1`,
		`x_latency_seconds_sum{stage="eval"} 0.003`,
		"",
	}, "\n")
	if buf.String() != want {
		t.Fatalf("render mismatch:\ngot:\n%swant:\n%s", buf.String(), want)
	}
}

// TestRegistryUnlabeledHistogram checks the label-free exposition form.
func TestRegistryUnlabeledHistogram(t *testing.T) {
	var r Registry
	h := NewHistogram(nil)
	r.Histogram("z_seconds", "", "", []float64{0.5}, h)
	var buf bytes.Buffer
	r.Render(&buf)
	want := "z_seconds{quantile=\"0.5\"} 0\nz_seconds_count 0\nz_seconds_sum 0\n"
	if buf.String() != want {
		t.Fatalf("render mismatch:\ngot %q\nwant %q", buf.String(), want)
	}
}
