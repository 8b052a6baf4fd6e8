// Command sweep runs free-form parameter sweeps — policy × bid × zone
// count over experiment windows — and emits one CSV row per run, for
// analyses beyond the paper's fixed figures.
//
// Usage:
//
//	sweep -preset high -policies periodic,markov-daly -bids 0.27,0.81,2.40 -ns 1,3 -windows 20 > sweep.csv
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/pool"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, runs the grid and writes the
// rows to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	// The set shadows the package so registrations read flag.X, as the
	// documented-flags check expects.
	flag := flag.NewFlagSet("sweep", flag.ExitOnError)
	flag.SetOutput(stderr)
	preset := flag.String("preset", "high", "regime: low, high, low-spike")
	seed := flag.Uint64("seed", 1, "suite seed")
	windows := flag.Int("windows", 20, "experiment windows")
	policies := flag.String("policies", "periodic,markov-daly,edge,threshold", "comma-separated policies: "+core.StrategyUsage()+", so their bid/n columns only echo the grid point")
	bids := flag.String("bids", "0.27,0.81,2.40", "comma-separated bid prices")
	ns := flag.String("ns", "1,3", "comma-separated redundancy degrees")
	slack := flag.Float64("slack", 0.15, "slack fraction")
	tc := flag.Int64("tc", 300, "checkpoint cost in seconds")
	format := flag.String("format", "csv", "output format: csv, or json (a replay archive for later re-analysis)")
	workers := flag.Int("workers", 0, "worker pool size; 0 selects GOMAXPROCS")
	flag.Parse(args) // ExitOnError: a bad flag exits, as the global set does

	if *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q", *format)
	}
	bidVals, err := parseList(*bids, func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
	if err != nil {
		return err
	}
	nVals, err := parseList(*ns, strconv.Atoi)
	if err != nil {
		return err
	}
	s := experiment.NewQuickSuite(*seed, *windows)
	set := s.Regime(*preset)
	if set.NumZones() == 0 {
		return errors.New("empty regime")
	}

	// Refuse a bad policy name or redundancy degree before any output.
	kinds := strings.Split(*policies, ",")
	for _, kind := range kinds {
		for _, n := range nVals {
			if _, err := core.NewStrategy(kind, 0, n, set.NumZones()); err != nil {
				return err
			}
		}
	}
	type job struct {
		kind   string
		bid    float64
		n      int
		window trace.Window
	}
	var jobs []job
	for _, kind := range kinds {
		for _, bid := range bidVals {
			for _, n := range nVals {
				for _, win := range s.ExperimentWindows(*preset, *slack) {
					jobs = append(jobs, job{kind, bid, n, win})
				}
			}
		}
	}
	archive := &replay.Archive{Meta: map[string]string{
		"regime":  *preset,
		"seed":    strconv.FormatUint(*seed, 10),
		"windows": strconv.Itoa(*windows),
	}}
	var w *csv.Writer
	if *format == "csv" {
		w = csv.NewWriter(stdout)
		if err := w.Write([]string{"policy", "bid", "n", "window", "cost", "spot_cost", "od_cost", "checkpoints", "restarts", "kills", "switched_od", "finish_h"}); err != nil {
			return err
		}
	}
	// Run the whole grid across the shared worker pool into indexed
	// slots, then emit rows in grid order so the output is byte-identical
	// to a sequential sweep.
	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	pool.Run(*workers, len(jobs), func(i int) {
		j := jobs[i]
		strat, _ := core.NewStrategy(j.kind, j.bid, j.n, set.NumZones()) // checked above
		results[i], errs[i] = sim.Run(s.Config(j.window, *slack, *tc), strat)
	})
	for i, j := range jobs {
		if errs[i] != nil {
			return errs[i]
		}
		res := results[i]
		if *format == "json" {
			archive.Add(replay.FromResult(res, *preset, *slack, *tc, j.bid, j.n, j.window.Index))
			continue
		}
		rec := []string{
			j.kind,
			fmt.Sprintf("%.2f", j.bid),
			strconv.Itoa(j.n),
			strconv.Itoa(j.window.Index),
			fmt.Sprintf("%.2f", res.Cost),
			fmt.Sprintf("%.2f", res.SpotCost),
			fmt.Sprintf("%.2f", res.OnDemandCost),
			strconv.Itoa(res.Checkpoints),
			strconv.Itoa(res.Restarts),
			strconv.Itoa(res.ProviderKills),
			strconv.FormatBool(res.SwitchedOnDemand),
			fmt.Sprintf("%.2f", float64(res.FinishTime-j.window.Run.Start())/float64(trace.Hour)),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	if *format == "json" {
		return archive.Write(stdout)
	}
	w.Flush()
	return w.Error()
}

// parseList parses a comma-separated list, one element by parse.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
