// Command bench is the repository's end-to-end benchmark. It builds the
// real serving stack (cluster.Router in front of quote.Service backends
// over loopback HTTP) and the paper-reproduction suite from their public
// constructors, drives one of four named workloads, checks that every
// output is correct, and prints each metric by name with its unit and
// sample count. README.md describes the workloads and metrics.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash bench/run.sh -workload quote-cold -seed 1
//	bash bench/run.sh -workload all -seed 2 -json runs.json
//	bash bench/run.sh -workload quote-hot -trace 1
//	bash bench/run.sh -workload all -repeat 5 -json parent.json
//	bash bench/run.sh -compare parent.json change.json
//
// A single untraced workload prints `<workload> <metric> <value> <unit>
// (n=<samples>)` lines and ends with a one-line JSON summary. Several
// workloads, -repeat and -trace re-execute the binary once per run so
// no heap, cache or GC state carries over between runs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"time"
)

// workloads are the benchmark's workloads, in the order -workload all
// runs them.
var workloads = []string{"quote-cold", "quote-hot", "stream-live", "paper-suite"}

// config is one run's settings. The command-line knobs are the
// workload, seed, measured seconds and trace directory; the rest are
// fixed by defaultConfig and shrunk only by the tests.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration
	traceDir string // empty when untraced

	setups    int     // set-up repetitions; setup_s is their median
	hotRate   float64 // quote-hot offered load, requests/s
	tickRate  float64 // stream-live feed rate, ticks/s
	warmTicks int     // stream-live warm-up ticks (2 days of 5-minute samples)
	windows   int     // paper-suite experiment windows per regime
}

// traced reports whether the run records spans.
func (c config) traced() bool { return c.traceDir != "" }

// defaultConfig returns the benchmark's settings for one run.
func defaultConfig(workload string, seed uint64, seconds int, traceDir string) config {
	return config{
		workload:  workload,
		seed:      seed,
		measure:   time.Duration(seconds) * time.Second,
		traceDir:  traceDir,
		setups:    9,
		hotRate:   2500,
		tickRate:  50,
		warmTicks: 576,
		windows:   40,
	}
}

// runWorkload runs one workload in this process.
func runWorkload(cfg config) (*Result, error) {
	res := &Result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.measure.Seconds(), Traced: cfg.traced()}
	run := map[string]func(config, *Result) error{
		"quote-cold":  runQuoteCold,
		"quote-hot":   runQuoteHot,
		"stream-live": runStreamLive,
		"paper-suite": runPaperSuite,
	}[cfg.workload]
	if run == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := run(cfg, res); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.metric("peak_rss_mb", rss, 1)
	order := map[string]int{}
	for i, d := range endToEnd {
		order[d.name] = i
	}
	sort.SliceStable(res.Metrics, func(i, j int) bool { return order[res.Metrics[i].Name] < order[res.Metrics[j].Name] })
	res.finish()
	return res, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	workload := flag.String("workload", "all", "workload: quote-cold, quote-hot, stream-live, paper-suite or all")
	seed := flag.Uint64("seed", 1, "workload seed: draws the request mix, the subscription shapes and the suite")
	seconds := flag.Int("seconds", 20, "length of each run's measured phase in seconds")
	traceFlag := flag.String("trace", "0", "0 for an untraced run; 1 or a directory for a traced run that writes spans.jsonl and layers.json (1: .bench_build/trace/<workload>)")
	jsonOut := flag.String("json", "", "write every run's full result to this file")
	repeat := flag.Int("repeat", 1, "run the workloads this many times and report each metric's median and quartiles")
	compare := flag.String("compare", "", "compare two -json files: -compare parent.json change.json")
	child := flag.Bool("child", false, "run one workload in this process and end with its full result as JSON (used when re-executing)")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			log.Fatal("usage: -compare parent.json change.json")
		}
		bounds, err := loadBounds()
		if err != nil {
			log.Fatal(err)
		}
		regressed, err := runCompare(os.Stdout, *compare, flag.Arg(0), bounds)
		if err != nil {
			log.Fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		log.Fatalf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || *repeat < 1 {
		log.Fatal("-seconds and -repeat must be at least 1")
	}
	names := workloads
	if *workload != "all" {
		names = []string{*workload}
		if !slices.Contains(workloads, *workload) {
			log.Fatalf("unknown workload %q", *workload)
		}
	}
	traceDir := ""
	switch *traceFlag {
	case "0", "":
	case "1":
		traceDir = ".bench_build/trace"
	default:
		traceDir = *traceFlag
	}

	if *child {
		cfg := defaultConfig(names[0], *seed, *seconds, traceDir)
		res, err := runWorkload(cfg)
		if err != nil {
			log.Fatal(err)
		}
		printLines(os.Stdout, res)
		if err := printJSONLine(os.Stdout, res); err != nil {
			log.Fatal(err)
		}
		return
	}

	// One untraced run of one workload runs here; everything else
	// re-executes the binary per run.
	var runs []*Result
	if len(names) == 1 && *repeat == 1 && traceDir == "" {
		res, err := runWorkload(defaultConfig(names[0], *seed, *seconds, ""))
		if err != nil {
			log.Fatal(err)
		}
		printLines(os.Stdout, res)
		runs = []*Result{res}
	} else {
		var err error
		if runs, err = orchestrate(names, *seed, *seconds, traceDir, *repeat); err != nil {
			log.Fatal(err)
		}
		if *repeat > 1 {
			bounds, err := loadBounds()
			if err != nil {
				log.Fatal(err)
			}
			summarize(os.Stdout, runs, bounds)
		}
	}
	if *jsonOut != "" {
		if err := writeRuns(*jsonOut, runs); err != nil {
			log.Fatal(err)
		}
	}
	correct := true
	for _, r := range runs {
		correct = correct && r.Correct
	}
	if len(runs) == 1 {
		line, err := summaryLine(runs[0])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(string(line))
	} else {
		fmt.Printf("bench: %d runs, all correct: %t\n", len(runs), correct)
	}
	if !correct {
		os.Exit(1)
	}
}
