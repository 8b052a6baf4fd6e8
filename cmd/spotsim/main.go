// Command spotsim runs a single spot-market experiment — one policy,
// bid and zone set over one window — and prints the cost ledger and
// optional event timeline. It is the single-run companion to paperfigs.
//
// Usage:
//
//	spotsim -preset high -policy markov-daly -bid 0.81 -n 3 -slack 0.15 -tc 300
//	spotsim -preset low -policy adaptive -timeline
//	spotsim -preset low-spike -policy large-bid -threshold 0.81
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spotsim: ")

	preset := flag.String("preset", "low", "trace preset: low, high, low-spike")
	seed := flag.Uint64("seed", 1, "trace and run seed")
	policy := flag.String("policy", "periodic", "policy: periodic, markov-daly, edge, threshold, changepoint, large-bid, adaptive, on-demand")
	bid := flag.Float64("bid", 0.81, "bid price in $/h (large-bid uses $100 automatically)")
	n := flag.Int("n", 1, "number of redundant zones (1-3)")
	threshold := flag.Float64("threshold", 0.81, "large-bid cost-control threshold L (0 = naive)")
	workHours := flag.Float64("work", 20, "uninterrupted computation time C in hours")
	slack := flag.Float64("slack", 0.15, "slack fraction of C (deadline = C*(1+slack))")
	tc := flag.Int64("tc", 300, "checkpoint (and restart) cost in seconds")
	appName := flag.String("app", "", "derive checkpoint/restart costs from an application profile (e.g. nas-ft-d-128); overrides -tc")
	day := flag.Int("day", 5, "start day of the experiment window within the month trace")
	timeline := flag.Bool("timeline", false, "print the detailed event timeline")
	flag.Parse()

	set, err := tracegen.Preset(*preset, *seed)
	if err != nil {
		log.Fatal(err)
	}
	start := set.Start() + int64(*day)*24*trace.Hour
	if start-2*24*trace.Hour < set.Start() {
		log.Fatalf("day %d leaves no room for the 2-day model history", *day)
	}
	work := int64(*workHours * float64(trace.Hour))
	deadline := int64(float64(work) * (1 + *slack))
	runEnd := start + deadline + 2*trace.Hour
	if runEnd > set.End() {
		log.Fatalf("window exceeds the trace; pick an earlier -day")
	}

	ckptCost, restartCost := *tc, *tc
	var iteration int64
	if *appName != "" {
		profile, err := app.Lookup(*appName)
		if err != nil {
			log.Fatal(err)
		}
		ckptCost, restartCost, err = app.Costs(profile, app.DefaultIOServer())
		if err != nil {
			log.Fatal(err)
		}
		iteration = int64(profile.IterationSeconds)
		fmt.Printf("application %s: %d tasks × %.0f MB → checkpoint %d s, restart %d s, iteration %d s\n\n",
			profile.Name, profile.Tasks, profile.StatePerTaskMB, ckptCost, restartCost, iteration)
	}

	cfg := sim.Config{
		Trace:            set.Slice(start, runEnd),
		History:          set.Slice(start-2*24*trace.Hour, start),
		Work:             work,
		Deadline:         deadline,
		CheckpointCost:   ckptCost,
		RestartCost:      restartCost,
		IterationSeconds: iteration,
		Seed:             *seed,
		RecordTimeline:   *timeline,
	}

	strat, err := buildStrategy(*policy, *bid, *n, *threshold, set.NumZones())
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(cfg, strat)
	if err != nil {
		log.Fatal(err)
	}
	printResult(cfg, res, start)
}

func buildStrategy(policy string, bid float64, n int, threshold float64, zones int) (sim.Strategy, error) {
	if n < 1 || n > zones {
		return nil, fmt.Errorf("n must be in 1..%d", zones)
	}
	zoneIdx := make([]int, n)
	for i := range zoneIdx {
		zoneIdx[i] = i
	}
	switch policy {
	case "periodic", "markov-daly", "edge", "threshold", "changepoint":
		var p sim.CheckpointPolicy
		switch policy {
		case "periodic":
			p = core.NewPeriodic()
		case "markov-daly":
			p = core.NewMarkovDaly()
		case "edge":
			p = core.NewEdge()
		case "threshold":
			p = core.NewThreshold()
		case "changepoint":
			p = core.NewChangepoint()
		}
		if n == 1 {
			return core.SingleZone(p, bid, 0), nil
		}
		return core.Redundant(p, bid, zoneIdx), nil
	case "large-bid":
		l := threshold
		if l <= 0 {
			l = math.Inf(1)
		}
		return core.NewStatic("large-bid", sim.RunSpec{
			Bid: core.LargeBidAmount, Zones: []int{0}, Policy: core.NewLargeBid(l),
		}), nil
	case "adaptive":
		return core.NewAdaptive(), nil
	case "on-demand":
		return core.NewOnDemandOnly(), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", policy)
	}
}

func printResult(cfg sim.Config, res *sim.Result, start int64) {
	hours := func(t int64) float64 { return float64(t-start) / float64(trace.Hour) }
	fmt.Printf("strategy:          %s (%s)\n", res.Strategy, res.Policy)
	fmt.Printf("completed:         %v (deadline met: %v)\n", res.Completed, res.DeadlineMet)
	fmt.Printf("finish:            %.2f h (deadline %.2f h)\n", hours(res.FinishTime), float64(cfg.Deadline)/float64(trace.Hour))
	fmt.Printf("total cost:        $%.2f (spot $%.2f + on-demand $%.2f)\n", res.Cost, res.SpotCost, res.OnDemandCost)
	fmt.Printf("on-demand ref:     $%.2f\n", math.Ceil(float64(cfg.Work)/float64(trace.Hour))*market.OnDemandRate)
	fmt.Printf("checkpoints:       %d (+%d aborted), restarts: %d\n", res.Checkpoints, res.AbortedCheckpoints, res.Restarts)
	fmt.Printf("time attribution:  %.1f h rework lost to terminations, %.1f h checkpoint/restore overhead\n",
		float64(res.ReworkSeconds)/float64(trace.Hour), float64(res.OverheadSeconds)/float64(trace.Hour))
	fmt.Printf("terminations:      %d by provider, %d by user; spec switches: %d\n", res.ProviderKills, res.UserReleases, res.SpecSwitches)
	fmt.Printf("switched to OD:    %v\n", res.SwitchedOnDemand)
	fmt.Println("\nledger:")
	for _, e := range res.Ledger.Entries {
		kind := "spot"
		if e.OnDemand {
			kind = "on-demand"
		}
		partial := ""
		if e.Partial {
			partial = " (partial hour, charged in full)"
		}
		fmt.Printf("  %6.2f h  %-10s %-12s $%.2f%s\n", hours(e.HourStart), kind, e.Zone, e.Rate, partial)
	}
	if len(res.Timeline) > 0 {
		fmt.Println("\ntimeline:")
		for _, ev := range res.Timeline {
			zone := ""
			if ev.Zone >= 0 {
				zone = fmt.Sprintf(" zone=%d", ev.Zone)
			}
			detail := ""
			if ev.Detail != "" {
				detail = " " + ev.Detail
			}
			fmt.Printf("  %6.2f h  %-18s%s%s\n", hours(ev.Time), ev.Kind, zone, detail)
		}
	}
	if !res.DeadlineMet {
		os.Exit(1)
	}
}
