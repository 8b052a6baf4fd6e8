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
	"flag"
	"fmt"
	"log"
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
	log.SetFlags(0)
	log.SetPrefix("sweep: ")

	preset := flag.String("preset", "high", "regime: low, high, low-spike")
	seed := flag.Uint64("seed", 1, "suite seed")
	windows := flag.Int("windows", 20, "experiment windows")
	policies := flag.String("policies", "periodic,markov-daly,edge,threshold", "comma-separated policies; \"adaptive\" runs the full Adaptive scheme (its bid/n columns echo the grid point but do not constrain it)")
	bids := flag.String("bids", "0.27,0.81,2.40", "comma-separated bid prices")
	ns := flag.String("ns", "1,3", "comma-separated redundancy degrees")
	slack := flag.Float64("slack", 0.15, "slack fraction")
	tc := flag.Int64("tc", 300, "checkpoint cost in seconds")
	format := flag.String("format", "csv", "output format: csv, or json (a replay archive for later re-analysis)")
	workers := flag.Int("workers", 0, "worker pool size; 0 selects GOMAXPROCS")
	flag.Parse()

	if *format != "csv" && *format != "json" {
		log.Fatalf("unknown format %q", *format)
	}
	s := experiment.NewQuickSuite(*seed, *windows)
	set := s.Regime(*preset)

	bidVals, err := parseFloats(*bids)
	if err != nil {
		log.Fatal(err)
	}
	nVals, err := parseInts(*ns)
	if err != nil {
		log.Fatal(err)
	}
	kinds := strings.Split(*policies, ",")

	type job struct {
		kind   string
		bid    float64
		n      int
		window trace.Window
	}
	if set.NumZones() == 0 {
		log.Fatal("empty regime")
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
		w = csv.NewWriter(os.Stdout)
		defer w.Flush()
		if err := w.Write([]string{"policy", "bid", "n", "window", "cost", "spot_cost", "od_cost", "checkpoints", "restarts", "kills", "switched_od", "finish_h"}); err != nil {
			log.Fatal(err)
		}
	}
	// Run the whole grid across the shared worker pool into indexed
	// slots, then emit rows in grid order so the output is byte-identical
	// to a sequential sweep.
	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	pool.Run(*workers, len(jobs), func(i int) {
		j := jobs[i]
		cfg := s.Config(j.window, *slack, *tc)
		zones := make([]int, j.n)
		for zi := range zones {
			zones[zi] = zi
		}
		var strat sim.Strategy
		if j.kind == "adaptive" {
			strat = core.NewAdaptive()
		} else {
			strat = core.NewStatic(j.kind, sim.RunSpec{Bid: j.bid, Zones: zones, Policy: experiment.NewPolicy(j.kind)})
		}
		results[i], errs[i] = sim.Run(cfg, strat)
	})
	for i, j := range jobs {
		if errs[i] != nil {
			log.Fatal(errs[i])
		}
		res := results[i]
		switch *format {
		case "json":
			archive.Add(replay.FromResult(res, *preset, *slack, *tc, j.bid, j.n, j.window.Index))
		case "csv":
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
				log.Fatal(err)
			}
		default:
			log.Fatalf("unknown format %q", *format)
		}
	}
	if *format == "json" {
		if err := archive.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
