package quote

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetricsRenderGolden pins the /metrics exposition byte-for-byte
// against testdata/metrics.golden, which was captured from the
// pre-registry hand-written Fprintf implementation. Any drift in metric
// names, ordering, quantile estimation or float formatting across the
// obs migration (or future refactors) fails here.
func TestMetricsRenderGolden(t *testing.T) {
	m := NewMetrics()
	m.Requests.Add(17)
	m.ValidationErrors.Add(2)
	m.HistoryErrors.Add(3)
	m.EvalErrors.Add(1)
	m.CacheHits.Add(9)
	m.CacheMisses.Add(8)
	m.Coalesced.Add(4)
	m.InFlight.Add(2)
	m.FeedStaleServes.Add(7)
	m.WatchdogTrips.Add(1)
	for _, v := range []float64{0.0007, 0.003, 0.003, 0.04, 1.7} {
		m.history.Observe(v)
	}
	for _, v := range []float64{0.011, 0.012, 0.09, 0.26} {
		m.eval.Observe(v)
	}
	for _, v := range []float64{0.012, 0.015, 0.13, 0.3, 2.2, 75} {
		m.total.Observe(v)
	}

	var buf bytes.Buffer
	m.Render(&buf)

	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from the pre-migration golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// retiredSeries are the lines metrics.golden held for four counters
// that nothing incremented once the service lost its last-known-good
// store and its history breaker; they followed quoted_in_flight.
var retiredSeries = []string{
	"quoted_stale_plans_total 5",
	"quoted_breaker_opens_total 1",
	"quoted_breaker_half_opens_total 2",
	"quoted_breaker_fast_fails_total 6",
}

// TestMetricsGoldenKeepsUnretiredLines checks that retiring the four
// series removed their lines and nothing else: put back after
// quoted_in_flight, they restore the exposition the golden pinned
// before, whose FNV-64a this test holds. The rendering must name none
// of them.
func TestMetricsGoldenKeepsUnretiredLines(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var restored []string
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		restored = append(restored, line)
		if strings.HasPrefix(line, "quoted_in_flight ") {
			for _, r := range retiredSeries {
				restored = append(restored, r+"\n")
			}
		}
	}
	h := fnv.New64a()
	h.Write([]byte(strings.Join(restored, "")))
	if got := fmt.Sprintf("%016x", h.Sum64()); got != "564608f45c754a2d" {
		t.Fatalf("golden with the retired lines restored hashes to %s, want 564608f45c754a2d: a line besides them changed", got)
	}
	var buf bytes.Buffer
	NewMetrics().Render(&buf)
	for _, r := range retiredSeries {
		if name, _, _ := strings.Cut(r, " "); strings.Contains(buf.String(), name) {
			t.Errorf("exposition still names the retired series %s", name)
		}
	}
}
