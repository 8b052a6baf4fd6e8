package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric and its unit. The two catalogs below are
// the metrics BENCHMARK.json lists, in its order; bench_test.go keeps
// the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them; an operation is a
// quote request (quote-cold, quote-hot), a feed tick (stream-live) or a
// whole regeneration of the paper's figures (paper-suite).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics: the latency tail and CPU per
// operation (every run prints both, but their spreads across runs fit
// no bound), self times of the serving layers, the evaluator's own
// spans, stream and suite stage times, cache and routing counters, and
// unit-cost probes. A layer a workload does not exercise reads 0 with
// n=0 there.
var perLayer = []metricDef{
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"cluster.route_self_us_p50", "us"},
	{"httpx.proxy_self_us_p50", "us"},
	{"quote.handle_self_us_p50", "us"},
	{"quote.history_us_p50", "us"},
	{"quote.cache_hit_ratio", "ratio"},
	{"quote.coalesced", "count"},
	{"cluster.failovers", "count"},
	{"cluster.retries", "count"},
	{"client.late_ms_p99", "ms"},
	{"core.rank_ms_p50", "ms"},
	{"core.sweep_ms_p50", "ms"},
	{"core.sweep_specs", "count"},
	{"core.sweep_batched_ratio", "ratio"},
	{"feed.ingest_us_p50", "us"},
	{"feed.ingest_us_p99", "us"},
	{"feed.late_ms_p99", "ms"},
	{"quote.push_ms_p50", "ms"},
	{"quote.push_ms_p99", "ms"},
	{"stream.generations", "count"},
	{"stream.frames_received", "count"},
	{"stream.delivery_ratio", "ratio"},
	{"experiment.fig1_s", "s"},
	{"experiment.fig3_s", "s"},
	{"experiment.fig2_s", "s"},
	{"experiment.var_s", "s"},
	{"experiment.fig4_s", "s"},
	{"experiment.table2_s", "s"},
	{"experiment.table3_s", "s"},
	{"experiment.fig5_s", "s"},
	{"experiment.fig6_s", "s"},
	{"experiment.headline_s", "s"},
	{"experiment.oracle_s", "s"},
	{"experiment.convergence_s", "s"},
	{"experiment.yearbound_s", "s"},
	{"report.render_s", "s"},
	{"tracegen.regimes_s", "s"},
	{"trace.bidindex_build_us", "us"},
	{"markov.fit_us", "us"},
	{"markov.uptime_us", "us"},
	{"daly.optimal_ns", "ns"},
	{"quote.digest_us", "us"},
	{"quote.encode_us", "us"},
	{"core.stream_advance_us_p50", "us"},
	{"core.stream_advance_us_p99", "us"},
	{"core.stream_catchups", "count"},
	{"core.stream_rebuilds", "count"},
	{"core.stream_fallback", "count"},
	{"sim.run_static_ms", "ms"},
	{"core.adaptive_run_ms", "ms"},
	{"core.decisions", "count"},
	{"core.decision_ms", "ms"},
	{"bench.gap_ms_p50", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.spans_dropped", "count"},
}

// unitOf returns a cataloged metric's unit; an unknown name is a bug in
// the benchmark.
func unitOf(name string) string {
	for _, cat := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range cat {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the catalog")
}

// Metric is one measured value with its unit and the number of samples
// it summarizes.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Check is one output-correctness check.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Result is everything one run of one workload measured and checked.
type Result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Checks    []Check  `json:"checks"`
	Metrics   []Metric `json:"metrics"`
	Layers    []Metric `json:"layers,omitempty"`
	// Breakdown is the traced run's per-layer self-time table.
	Breakdown []LayerRow `json:"breakdown,omitempty"`
}

// LayerRow is one line of a traced run's self-time table: the layer's
// median self time and its share of the mean end-to-end time.
type LayerRow struct {
	Layer  string  `json:"layer"`
	P50Ms  float64 `json:"p50_ms"`
	MeanMs float64 `json:"mean_ms"`
	Share  float64 `json:"share"`
	N      int     `json:"n"`
}

// metric adds an end-to-end metric.
func (r *Result) metric(name string, v float64, n int) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unitOf(name), N: n})
}

// layer adds a per-layer metric.
func (r *Result) layer(name string, v float64, n int) {
	r.Layers = append(r.Layers, Metric{Name: name, Value: v, Unit: unitOf(name), N: n})
}

// check records one output check; a failing check makes the run
// incorrect.
func (r *Result) check(name string, err error) {
	c := Check{Name: name, OK: err == nil}
	if err != nil {
		c.Detail = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

// note records a passing check with an explanatory detail.
func (r *Result) note(name, detail string) {
	r.Checks = append(r.Checks, Check{Name: name, OK: true, Detail: detail})
}

// finish derives Correct from the checks and the failure count.
func (r *Result) finish() {
	if r.Failed > 0 {
		r.check("no failed operations", fmt.Errorf("%d of %d operations failed", r.Failed, r.Attempted))
	}
	r.Correct = true
	for _, c := range r.Checks {
		r.Correct = r.Correct && c.OK
	}
}

// find returns the named metric from either list.
func (r *Result) find(name string) (Metric, bool) {
	for _, list := range [][]Metric{r.Metrics, r.Layers} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// printLines writes the run in the human format: one line per metric,
// `<workload> <metric> <value> <unit> (n=<samples>)`, then the checks
// and, for a traced run, the self-time table.
func printLines(w io.Writer, r *Result) {
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %s %s %s (n=%d)\n", r.Workload, m.Name, formatValue(m.Value), m.Unit, m.N)
	}
	for _, m := range r.Layers {
		if m.N > 0 {
			fmt.Fprintf(w, "%s %s %s %s (n=%d)\n", r.Workload, m.Name, formatValue(m.Value), m.Unit, m.N)
		}
	}
	if len(r.Breakdown) > 0 {
		fmt.Fprintf(w, "%s self times (p50, mean, share of mean end-to-end):\n", r.Workload)
		for _, row := range r.Breakdown {
			fmt.Fprintf(w, "  %-28s %12.4f ms %12.4f ms %7.2f%% (n=%d)\n", row.Layer, row.P50Ms, row.MeanMs, 100*row.Share, row.N)
		}
	}
	for _, c := range r.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		if c.Detail != "" {
			fmt.Fprintf(w, "%s check %s: %s (%s)\n", r.Workload, c.Name, status, c.Detail)
		} else {
			fmt.Fprintf(w, "%s check %s: %s\n", r.Workload, c.Name, status)
		}
	}
	fmt.Fprintf(w, "%s attempted %d failed %d correct %t\n", r.Workload, r.Attempted, r.Failed, r.Correct)
}

// formatValue prints a value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// summaryLine is the one-line JSON summary a single-workload run ends
// with: the end-to-end metrics of an untraced run or the per-layer
// metrics of a traced one, each catalog metric present exactly once.
func summaryLine(r *Result) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	cat, list := endToEnd, r.Metrics
	if r.Traced {
		cat, list = perLayer, r.Layers
	}
	metrics := make(map[string]value, len(cat))
	for _, d := range cat {
		metrics[d.name] = value{Unit: d.unit}
	}
	for _, m := range list {
		if _, ok := metrics[m.Name]; ok {
			metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
}

// pct returns the nearest-rank q-quantile of sorted values (0 when
// empty).
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// sorted returns a sorted copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// mean returns the arithmetic mean (0 when empty).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the first quartile, median and third quartile with
// the interpolation of Python's statistics.quantiles(data, n=4), so
// spreads here match the ones an outside check computes.
func quartiles(v []float64) (q1, med, q3 float64) {
	d := sorted(v)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// phase brackets a measured phase: wall time and process CPU time.
type phase struct {
	start time.Time
	cpu   time.Duration
}

// beginPhase starts measuring.
func beginPhase() phase { return phase{start: time.Now(), cpu: cpuTime()} }

// addCommon appends the metrics every workload derives the same way at
// the end of its measured phase: CPU per operation over the phase and
// the median set-up time.
func (r *Result) addCommon(p phase, ops int64, setups []float64) {
	cpu := cpuTime() - p.cpu
	r.layer("cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/float64(max(ops, 1)), int(ops))
	_, med, _ := quartiles(setups)
	r.metric("setup_s", med, len(setups))
}
