// Command spotsim runs a single spot-market experiment — one policy,
// bid and zone set over one window — and prints the cost ledger and
// optional event timeline. It is the single-run companion to paperfigs.
//
// Usage:
//
//	spotsim -preset high -policy markov-daly -bid 0.81 -n 3 -slack 0.15 -tc 300
//	spotsim -preset low -policy adaptive -timeline
//	spotsim -preset low-spike -policy large-bid:L=2.4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "spotsim:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, runs the experiment and prints
// its report to stdout. A missed deadline is an error after the report.
func run(args []string, stdout, stderr io.Writer) error {
	// The set shadows the package so registrations read flag.X, as the
	// documented-flags check expects.
	flag := flag.NewFlagSet("spotsim", flag.ExitOnError)
	flag.SetOutput(stderr)
	preset := flag.String("preset", "low", "trace preset: low, high, low-spike")
	seed := flag.Uint64("seed", 1, "trace and run seed")
	policy := flag.String("policy", "periodic", "policy: "+core.StrategyUsage())
	bid := flag.Float64("bid", 0.81, "bid price in $/h")
	n := flag.Int("n", 1, "number of redundant zones (1-3)")
	workHours := flag.Float64("work", 20, "uninterrupted computation time C in hours")
	slack := flag.Float64("slack", 0.15, "slack fraction of C (deadline = C*(1+slack))")
	tc := flag.Int64("tc", 300, "checkpoint (and restart) cost in seconds")
	appName := flag.String("app", "", "derive checkpoint/restart costs from an application profile (e.g. nas-ft-d-128); overrides -tc")
	day := flag.Int("day", 5, "start day of the experiment window within the month trace")
	timeline := flag.Bool("timeline", false, "print the detailed event timeline")
	flag.Parse(args) // ExitOnError: a bad flag exits, as the global set does

	set, err := tracegen.Preset(*preset, *seed)
	if err != nil {
		return err
	}
	strat, err := core.NewStrategy(*policy, *bid, *n, set.NumZones())
	if err != nil {
		return err
	}
	start := set.Start() + int64(*day)*24*trace.Hour
	if start-2*24*trace.Hour < set.Start() {
		return fmt.Errorf("day %d leaves no room for the 2-day model history", *day)
	}
	work := int64(*workHours * float64(trace.Hour))
	deadline := int64(float64(work) * (1 + *slack))
	runEnd := start + deadline + 2*trace.Hour
	if runEnd > set.End() {
		return errors.New("window exceeds the trace; pick an earlier -day")
	}

	ckptCost, restartCost := *tc, *tc
	var iteration int64
	if *appName != "" {
		profile, err := app.Lookup(*appName)
		if err != nil {
			return err
		}
		ckptCost, restartCost, err = app.Costs(profile, app.DefaultIOServer())
		if err != nil {
			return err
		}
		iteration = int64(profile.IterationSeconds)
		fmt.Fprintf(stdout, "application %s: %d tasks × %.0f MB → checkpoint %d s, restart %d s, iteration %d s\n\n",
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
	res, err := sim.Run(cfg, strat)
	if err != nil {
		return err
	}
	printResult(stdout, cfg, res, start)
	if !res.DeadlineMet {
		return errors.New("deadline missed")
	}
	return nil
}

func printResult(w io.Writer, cfg sim.Config, res *sim.Result, start int64) {
	hours := func(t int64) float64 { return float64(t-start) / float64(trace.Hour) }
	fmt.Fprintf(w, "strategy:          %s (%s)\n", res.Strategy, res.Policy)
	fmt.Fprintf(w, "completed:         %v (deadline met: %v)\n", res.Completed, res.DeadlineMet)
	fmt.Fprintf(w, "finish:            %.2f h (deadline %.2f h)\n", hours(res.FinishTime), float64(cfg.Deadline)/float64(trace.Hour))
	fmt.Fprintf(w, "total cost:        $%.2f (spot $%.2f + on-demand $%.2f)\n", res.Cost, res.SpotCost, res.OnDemandCost)
	fmt.Fprintf(w, "on-demand ref:     $%.2f\n", math.Ceil(float64(cfg.Work)/float64(trace.Hour))*market.OnDemandRate)
	fmt.Fprintf(w, "checkpoints:       %d (+%d aborted), restarts: %d\n", res.Checkpoints, res.AbortedCheckpoints, res.Restarts)
	fmt.Fprintf(w, "time attribution:  %.1f h rework lost to terminations, %.1f h checkpoint/restore overhead\n",
		float64(res.ReworkSeconds)/float64(trace.Hour), float64(res.OverheadSeconds)/float64(trace.Hour))
	fmt.Fprintf(w, "terminations:      %d by provider, %d by user; spec switches: %d\n", res.ProviderKills, res.UserReleases, res.SpecSwitches)
	fmt.Fprintf(w, "switched to OD:    %v\n", res.SwitchedOnDemand)
	fmt.Fprintln(w, "\nledger:")
	for _, e := range res.Ledger.Entries {
		kind := "spot"
		if e.OnDemand {
			kind = "on-demand"
		}
		partial := ""
		if e.Partial {
			partial = " (partial hour, charged in full)"
		}
		fmt.Fprintf(w, "  %6.2f h  %-10s %-12s $%.2f%s\n", hours(e.HourStart), kind, e.Zone, e.Rate, partial)
	}
	if len(res.Timeline) > 0 {
		fmt.Fprintln(w, "\ntimeline:")
		for _, ev := range res.Timeline {
			zone := ""
			if ev.Zone >= 0 {
				zone = fmt.Sprintf(" zone=%d", ev.Zone)
			}
			detail := ""
			if ev.Detail != "" {
				detail = " " + ev.Detail
			}
			fmt.Fprintf(w, "  %6.2f h  %-18s%s%s\n", hours(ev.Time), ev.Kind, zone, detail)
		}
	}
}
