package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/quote"
	"repro/internal/tracegen"
)

// toyConfig shrinks a workload to well under a second of measuring.
func toyConfig(workload, traceDir string) config {
	return config{
		workload:  workload,
		seed:      1,
		measure:   300 * time.Millisecond,
		traceDir:  traceDir,
		setups:    2,
		hotRate:   2000,
		tickRate:  200,
		warmTicks: 64,
		windows:   2,
	}
}

// readSpec loads the repository's BENCHMARK.json.
func readSpec(t *testing.T) (*spec, []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		spec
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return &s.spec, names
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	s, names := readSpec(t)
	if fmt.Sprint(names) != fmt.Sprint(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, bench runs %v", names, workloads)
	}
	for _, c := range []struct {
		what string
		file []bound
		code []metricDef
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the catalog %d", c.what, len(c.file), len(c.code))
			continue
		}
		for i, b := range c.file {
			if b.Name != c.code[i].name || b.Unit != c.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, catalog %s %s", c.what, i, b.Name, b.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}

// TestWorkloadsReportEveryMetric runs every workload at toy size,
// untraced and traced, and requires a correct run that prints every
// metric BENCHMARK.json names with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	s, _ := readSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%t", w, traced), func(t *testing.T) {
				dir := ""
				if traced {
					dir = t.TempDir()
				}
				res, err := runWorkload(toyConfig(w, dir))
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				printLines(&out, res)
				if !res.Correct {
					t.Fatalf("run not correct:\n%s", out.String())
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				line, err := summaryLine(res)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Attempted int64 `json:"attempted"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(line, &got); err != nil {
					t.Fatal(err)
				}
				if got.Attempted < 1 || len(got.Metrics) != len(want) {
					t.Errorf("summary has %d metrics and %d attempted, want %d metrics", len(got.Metrics), got.Attempted, len(want))
				}
				for _, b := range want {
					if m, ok := got.Metrics[b.Name]; !ok || m.Unit != b.Unit {
						t.Errorf("summary lacks %s in %s: %+v", b.Name, b.Unit, m)
					}
				}
				for _, b := range s.EndToEnd {
					re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w+" "+b.Name) + ` \S+ ` + regexp.QuoteMeta(b.Unit) + ` \(n=\d+\)$`)
					if !re.Match(out.Bytes()) {
						t.Errorf("no line prints %s with its unit:\n%s", b.Name, out.String())
					}
					if m, _ := res.find(b.Name); m.Value <= 0 {
						t.Errorf("%s reads %v; end-to-end metrics are never 0", b.Name, m.Value)
					}
				}
				if traced {
					for _, f := range []string{"spans.jsonl", "layers.json"} {
						if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
							t.Error(err)
						}
					}
				}
			})
		}
	}
}

func TestQuoteBodyChecksFire(t *testing.T) {
	src := &quote.StaticSource{Set: tracegen.HighVolatility(traceSeed)}
	req := quoteBody(8, 10, 6, 2)
	q, err := quote.DecodeRequest(bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := (&quote.Service{Source: src}).Quote(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkQuoteBody(body, quote.DefaultTop); err != nil {
		t.Fatalf("a served answer fails the check: %v", err)
	}
	if err := replayCheck(src, []replaySample{{req, body}}); err != nil {
		t.Fatalf("a served answer fails the replay: %v", err)
	}

	// Flip one digit of the answer: it still decodes, so only the
	// replay and repeat checks can notice.
	flipped := append([]byte(nil), body...)
	i := bytes.IndexAny(flipped, "123456789")
	flipped[i] ^= 1
	if err := replayCheck(src, []replaySample{{req, flipped}}); err == nil {
		t.Error("the replay check accepted a flipped byte")
	}
	chk := newBodyChecker()
	if !chk.check(1, req, body) || chk.check(2, req, flipped) {
		t.Error("the repeat check accepted a different answer to the same request")
	}
	if err := checkQuoteBody(body[1:], quote.DefaultTop); err == nil {
		t.Error("the body check accepted a truncated answer")
	}
	if err := checkQuoteBody(body, quote.DefaultTop+1); err == nil {
		t.Error("the body check accepted a missing alternative")
	}
}

func TestGenerationRegressionFires(t *testing.T) {
	var g genTracker
	for _, gen := range []uint64{1, 2, 5} {
		if err := g.observe(gen); err != nil {
			t.Fatal(err)
		}
	}
	for _, gen := range []uint64{5, 4} {
		if err := g.observe(gen); err == nil {
			t.Errorf("generation %d after 5 passed", gen)
		}
	}
}

func TestSuiteDigestCheckFires(t *testing.T) {
	want, ok, err := goldenDigest(1, 2)
	if err != nil || !ok {
		t.Fatalf("no committed digest for seed 1 at 2 windows: %v", err)
	}
	if verified, err := checkSuiteDigest(1, 2, want); !verified || err != nil {
		t.Errorf("the committed digest fails: %v", err)
	}
	if verified, err := checkSuiteDigest(1, 2, "0000000000000000"); !verified || err == nil {
		t.Error("a wrong digest passed")
	}
	if verified, err := checkSuiteDigest(7, 2, "0000000000000000"); verified || err != nil {
		t.Errorf("a seed without a committed digest should be unverified, got verified=%t err=%v", verified, err)
	}
}

// TestSuiteGoldens regenerates the 2-window suites of both committed
// seeds and compares them with the committed digests.
func TestSuiteGoldens(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		run, err := renderSuite(primeSuite(seed, 2), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkSuiteDigest(seed, 2, run.digest()); err != nil {
			t.Error(err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scale := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		change []float64
		better string
		want   string
	}{
		{scale(0.8), "lower", verdictImproved},
		{scale(1.2), "lower", verdictRegressed},
		{scale(1.2), "higher", verdictImproved},
		{scale(1.01), "lower", verdictUnchanged},
		{parent, "lower", verdictUnchanged},
	} {
		if got, _ := verdict(parent, c.change, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, better %s) = %s, want %s", c.change[0], c.better, got, c.want)
		}
	}
	noisy := []float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}
	if got, _ := verdict(noisy, noisy, "lower", 0.1); got != verdictUnresolved {
		t.Errorf("a spread wider than the bound gave %s, want %s", got, verdictUnresolved)
	}
}
