package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// orchestrate runs every named workload once per set, repeat sets, each
// run in a fresh process. A traced run is a pair of processes: an
// untraced run whose end-to-end metrics stand, then the traced run,
// whose per-layer metrics are kept together with the tracing overhead
// between the two.
func orchestrate(names []string, seed uint64, seconds int, traceDir string, repeat int) ([]*Result, error) {
	var runs []*Result
	for set := 1; set <= repeat; set++ {
		for _, w := range names {
			if repeat > 1 {
				fmt.Printf("== set %d/%d: %s\n", set, repeat, w)
			}
			ref, err := runChild(w, seed, seconds, "")
			if err != nil {
				return nil, err
			}
			if traceDir == "" {
				runs = append(runs, ref)
				continue
			}
			dir := filepath.Join(traceDir, w)
			fmt.Printf("== %s: traced run, spans to %s\n", w, dir)
			tr, err := runChild(w, seed, seconds, dir)
			if err != nil {
				return nil, err
			}
			res := combineTraced(ref, tr)
			printOverhead(os.Stdout, res, ref, tr)
			runs = append(runs, res)
		}
	}
	return runs, nil
}

// combineTraced joins a traced run to its untraced reference: the
// reference's end-to-end metrics, the traced run's layers, and the
// tracing overhead as the relative change of latency_p50_ms.
func combineTraced(ref, tr *Result) *Result {
	res := *tr
	res.Metrics = ref.Metrics
	res.Checks = append(append([]Check(nil), ref.Checks...), tr.Checks...)
	res.Correct = ref.Correct && tr.Correct
	res.Layers = nil
	for _, m := range tr.Layers {
		if m.Name == "bench.trace_overhead_frac" {
			m.Value, m.N = overhead(ref, tr), 2
		}
		res.Layers = append(res.Layers, m)
	}
	return &res
}

// overhead is traced over untraced latency_p50_ms, minus one.
func overhead(ref, tr *Result) float64 {
	u, ok1 := ref.find("latency_p50_ms")
	t, ok2 := tr.find("latency_p50_ms")
	if !ok1 || !ok2 || u.Value == 0 {
		return 0
	}
	return t.Value/u.Value - 1
}

// printOverhead reports the gap and the tracing overhead of a traced
// pair.
func printOverhead(w io.Writer, res, ref, tr *Result) {
	u, _ := ref.find("latency_p50_ms")
	t, _ := tr.find("latency_p50_ms")
	gap, _ := res.find("bench.gap_ms_p50")
	fmt.Fprintf(w, "%s gap (end-to-end minus the layers' self times) p50 %s ms\n", res.Workload, formatValue(gap.Value))
	fmt.Fprintf(w, "%s tracing overhead: latency_p50_ms %s traced vs %s untraced (%+.2f%%)\n",
		res.Workload, formatValue(t.Value), formatValue(u.Value), 100*overhead(ref, tr))
}

// childTimeout bounds one re-executed run, so a hung run cannot hang
// the whole set.
func childTimeout(seconds int) time.Duration { return time.Duration(3*seconds+150) * time.Second }

// runChild runs one workload in a fresh process, passing its lines
// through and returning the result its last line carries.
func runChild(workload string, seed uint64, seconds int, traceDir string) (*Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if traceDir == "" {
		traceDir = "0"
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout(seconds))
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", traceDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	var last []byte
	for sc.Scan() {
		if last != nil {
			fmt.Println(string(last))
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s run: %w", workload, err)
	}
	if scanErr != nil {
		return nil, fmt.Errorf("%s run: reading its output: %w", workload, scanErr)
	}
	var res Result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%s run: its last line is not a result: %w", workload, err)
	}
	return &res, nil
}

// printJSONLine writes the full result as one line.
func printJSONLine(w io.Writer, res *Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// runSet is the -json file: every run of an invocation.
type runSet struct {
	Runs []*Result `json:"runs"`
}

// writeRuns writes runs to path.
func writeRuns(path string, runs []*Result) error {
	b, err := json.MarshalIndent(runSet{Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readRuns reads a -json file.
func readRuns(path string) ([]*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return set.Runs, nil
}

// bound is a metric's direction and, for end-to-end metrics, the share
// of the parent's median by which it may worsen.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the comparisons read.
type spec struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

// loadBounds reads BENCHMARK.json from the repository root: the working
// directory (run.sh) or its parent (go run from bench/).
func loadBounds() (*spec, error) {
	var errs []error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("reading BENCHMARK.json: %w", errors.Join(errs...))
}

// summarize prints, per workload and end-to-end metric, the median and
// quartiles over the runs and the spread (q3 − q1) / median, flagging a
// spread above the metric's bound; per-layer metrics follow without
// bounds, and counts say whether they repeated exactly.
func summarize(w io.Writer, runs []*Result, s *spec) {
	for _, name := range workloads {
		mine := byWorkload(runs, name)
		if len(mine) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s over %d runs:\n", name, len(mine))
		for _, b := range s.EndToEnd {
			vals := values(mine, b.Name)
			q1, med, q3 := quartiles(vals)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			flag := ""
			if spread > b.Bound {
				flag = "  SPREAD ABOVE BOUND"
			}
			fmt.Fprintf(w, "  %-28s median %-14s q1 %-14s q3 %-14s spread %6.2f%% bound %5.1f%%%s\n",
				b.Name, formatValue(med), formatValue(q1), formatValue(q3), 100*spread, 100*b.Bound, flag)
		}
		for _, b := range s.PerLayer {
			vals := values(mine, b.Name)
			if len(vals) == 0 {
				continue
			}
			q1, med, q3 := quartiles(vals)
			note := ""
			if b.Unit == "count" {
				lo, hi := sorted(vals)[0], sorted(vals)[len(vals)-1]
				note = "  repeats exactly"
				if lo != hi {
					note = fmt.Sprintf("  varies %s..%s", formatValue(lo), formatValue(hi))
				}
			}
			fmt.Fprintf(w, "  %-28s median %-14s q1 %-14s q3 %-14s%s\n", b.Name, formatValue(med), formatValue(q1), formatValue(q3), note)
		}
	}
}

// values collects a metric's values across runs, skipping runs that
// did not exercise it.
func values(runs []*Result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.find(name); ok && (m.N > 0 || m.Value != 0) {
			out = append(out, m.Value)
		}
	}
	return out
}
