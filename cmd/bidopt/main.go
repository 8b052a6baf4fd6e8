// Command bidopt prints the analytic bid-price landscape of a zone:
// for each candidate bid, the stationary availability, expected paid
// rate, grant/outage cycle durations, effective progress rate and
// expected dollars per hour of committed work, plus the recommended bid
// for a required progress rate. It is the closed-form counterpart of
// the Adaptive scheme's simulation-based search (see internal/opt).
//
// Usage:
//
//	bidopt -preset high -zone 0 -rate 0.87
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/opt"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "bidopt:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set refused (or -h); the
// flag set has printed why.
var errUsage = errors.New("usage")

// run is the command: it parses args, fits the zone's chain and prints
// its bid landscape and the recommended bid to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	// The set shadows the package so registrations read flag.X, as the
	// documented-flags check expects.
	flag := flag.NewFlagSet("bidopt", flag.ContinueOnError)
	flag.SetOutput(stderr)
	preset := flag.String("preset", "high", "trace preset: low, high, low-spike")
	seed := flag.Uint64("seed", 1, "trace seed")
	zone := flag.Int("zone", 0, "zone index (0-2)")
	days := flag.Int64("days", 4, "history length in days to fit the chain on")
	tc := flag.Float64("tc", 300, "checkpoint cost in seconds")
	delay := flag.Float64("delay", 300, "mean queuing delay in seconds")
	rate := flag.Float64("rate", 0.87, "required progress rate (work / remaining time); 20h in 23h ≈ 0.87")
	if err := flag.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	set, err := tracegen.Preset(*preset, *seed)
	if err != nil {
		return err
	}
	if *zone < 0 || *zone >= set.NumZones() {
		return fmt.Errorf("zone %d out of range", *zone)
	}
	s := set.Series[*zone].Slice(set.Start(), set.Start()+*days*24*trace.Hour)
	hist := markov.Quantize(s.Prices, 0.05)
	m, err := markov.Fit(hist, s.Step)
	if err != nil {
		return err
	}
	ov := opt.Overheads{CheckpointCost: *tc, RestartCost: *tc, QueueDelay: *delay}

	fmt.Fprintf(stdout, "zone %s, %d days of history, %d price states, t_c=%gs\n\n", s.Zone, *days, m.NumStates(), *tc)
	var rows [][]string
	for _, bid := range core.BidGrid() {
		an := opt.Analyze(m, bid, ov)
		up := "inf"
		if !math.IsInf(an.ExpectedUptime, 1) {
			up = fmt.Sprintf("%.0fm", an.ExpectedUptime/60)
		}
		cost := "-"
		if an.CostPerWorkHour > 0 {
			cost = fmt.Sprintf("%.3f", an.CostPerWorkHour)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", bid),
			fmt.Sprintf("%.1f%%", an.Availability*100),
			fmt.Sprintf("%.3f", an.MeanPaidPrice),
			up,
			fmt.Sprintf("%.0fm", an.ExpectedDowntime/60),
			fmt.Sprintf("%.3f", an.EffectiveRate),
			cost,
		})
	}
	if err := report.Table(stdout, []string{"bid", "avail", "paid $/h", "E[up]", "E[down]", "eff rate", "$/work-h"}, rows); err != nil {
		return err
	}

	rec, err := opt.BestBid(m, core.BidGrid(), ov, *rate)
	if err != nil {
		return err
	}
	if rec.Feasible {
		fmt.Fprintf(stdout, "\nrecommended bid for rate >= %.2f: $%.2f (expected $%.3f per work-hour)\n",
			*rate, rec.Bid, rec.Analysis.CostPerWorkHour)
	} else {
		fmt.Fprintf(stdout, "\nno bid sustains rate %.2f on this zone; fastest is $%.2f at rate %.3f — the deadline guard will buy on-demand time\n",
			*rate, rec.Bid, rec.Analysis.EffectiveRate)
	}
	return nil
}
