// Command policytune searches the Adaptive strategy's hyperparameter
// space — bid grid, estimation window, headroom/churn thresholds,
// redundancy bound — against a replayed price trace, scoring each
// configuration with a weighted multi-objective fitness over cost,
// deadline margin and checkpoint waste. The search runs a deterministic
// grid stage (the paper default plus single-axis variations) followed
// by a seeded evolutionary stage, parallelized across the worker pool;
// with -state it checkpoints after every generation and a killed search
// resumes exactly where it stopped.
//
// The paper-default configuration is always evaluated, so the reported
// best is never worse than the §7 defaults on the chosen trace, and the
// whole search is reproducible for a fixed -tune-seed.
//
// Usage:
//
//	policytune -preset high -seed 31 -work 20 -slack 0.3
//	policytune -preset low-spike -generations 10 -state tuner.json
//	policytune -json -w-cost 1 -w-margin 0.05 -w-waste 0.1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/decision"
	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("policytune: ")

	preset := flag.String("preset", "high", "trace preset: low, high, low-spike")
	seed := flag.Uint64("seed", 31, "trace and run seed")
	workHours := flag.Float64("work", 20, "computation time C in hours")
	slack := flag.Float64("slack", 0.3, "slack fraction (deadline = work × (1+slack))")
	tuneSeed := flag.Uint64("tune-seed", 7, "evolutionary search seed")
	pop := flag.Int("population", 12, "offspring per generation")
	gens := flag.Int("generations", 6, "evolutionary generations")
	workers := flag.Int("workers", 0, "parallel evaluations (0: GOMAXPROCS)")
	state := flag.String("state", "", "checkpoint file: the search saves after every generation and resumes from it")
	wCost := flag.Float64("w-cost", 1, "fitness weight per dollar of cost")
	wMargin := flag.Float64("w-margin", 0.05, "fitness weight per hour of deadline margin")
	wWaste := flag.Float64("w-waste", 0.1, "fitness weight per hour of rework+overhead waste")
	asJSON := flag.Bool("json", false, "emit the search result as JSON")
	flag.Parse()

	set, err := tracegen.Preset(*preset, *seed)
	if err != nil {
		log.Fatal(err)
	}
	start := set.Start() + 5*24*trace.Hour
	work := int64(*workHours * float64(trace.Hour))
	deadline := int64(float64(work)*(1+*slack)) / trace.DefaultStep * trace.DefaultStep

	t := &decision.Tuner{
		Cfg: sim.Config{
			Trace:          set.Slice(start, start+deadline+2*trace.Hour),
			History:        set.Slice(start-2*24*trace.Hour, start),
			Work:           work,
			Deadline:       deadline,
			CheckpointCost: 300,
			RestartCost:    300,
			Delay:          market.DefaultDelay(),
			Seed:           *seed,
		},
		Weights:     decision.Weights{Cost: *wCost, Margin: *wMargin, Waste: *wWaste},
		Seed:        *tuneSeed,
		Workers:     *workers,
		Population:  *pop,
		Generations: *gens,
		StatePath:   *state,
		Log:         os.Stderr,
	}
	res, err := t.Search()
	if err != nil {
		log.Fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("searched %d configurations over %d generations (%d decisions simulated)\n\n",
		res.Evaluated, res.Generations, res.Decisions)
	printEval("default (paper §7)", res.Default)
	fmt.Println()
	printEval("best found", res.Best)
	fmt.Printf("\nfitness improvement over default: %+.4f\n", res.Best.Fitness-res.Default.Fitness)
}

// printEval renders one evaluated configuration.
func printEval(label string, ev decision.Eval) {
	g := ev.Genome
	fmt.Printf("%s:\n", label)
	fmt.Printf("  bids $%.2f..$%.2f step $%.2f, window %dh, headroom %.3f, churn %.3f, zones<=%d\n",
		g.BidLo, g.BidHi, g.BidStep, g.WindowHours, g.Headroom, g.Churn, g.MaxZones)
	fmt.Printf("  fitness %.4f  cost $%.2f  margin %.2fh  waste %.2fh  deadline met: %v\n",
		ev.Fitness, ev.Cost, ev.MarginHours, ev.WasteHours, ev.Outcome.DeadlineMet)
}
