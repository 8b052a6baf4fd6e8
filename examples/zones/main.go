// Zones: the redundancy study behind §3 — per-zone versus combined
// availability at a bid (the Figure 2 view), and what each redundancy
// degree N costs for the same deadline-constrained job. It shows the
// paper's core trade: redundant zones multiply the hourly bill but
// union availability keeps the job off the expensive on-demand
// fallback.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)

	market := tracegen.HighVolatility(19)
	const bid = 0.81

	// Availability over a 15-hour window, Figure 2 style.
	start := market.Start() + 6*24*trace.Hour
	win := market.Slice(start, start+15*trace.Hour)
	fmt.Printf("availability at bid $%.2f over 15 h ('#' = up):\n\n", bid)
	printBar("combined", win.CombinedUpIntervals(bid), win.Start(), win.End(), win.CombinedUpFraction(bid))
	for _, s := range win.Series {
		printBar(s.Zone, s.UpIntervals(bid), win.Start(), win.End(), s.UpFraction(bid))
	}

	// Cost vs redundancy degree for a 20 h job with 15% slack.
	fmt.Printf("\n20 h job, deadline 23 h, markov-daly at bid $%.2f:\n\n", bid)
	fmt.Printf("%-4s %-10s %-12s %-10s %-8s\n", "N", "cost", "on-demand?", "restarts", "kills")
	for n := 1; n <= 3; n++ {
		cfg := sim.Config{
			Trace:          market.Slice(start, start+25*trace.Hour),
			History:        market.Slice(start-2*24*trace.Hour, start),
			Work:           20 * trace.Hour,
			Deadline:       23 * trace.Hour,
			CheckpointCost: 300,
			RestartCost:    300,
			Seed:           5,
		}
		res, err := sim.Run(cfg, core.PolicySpec{Family: core.FamilyMarkovDaly}.Static(bid, n))
		if err != nil {
			log.Fatal(err)
		}
		od := "no"
		if res.SwitchedOnDemand {
			od = "yes"
		}
		fmt.Printf("%-4d $%-9.2f %-12s %-10d %-8d\n", n, res.Cost, od, res.Restarts, res.ProviderKills)
	}
	fmt.Println("\n(the paper's §6: under volatility and tight deadlines, paying for")
	fmt.Println("redundant zones is cheaper than falling back to $2.40/h on-demand)")
}

func printBar(label string, ivs []trace.Interval, start, end int64, frac float64) {
	const width = 60
	span := end - start
	bar := []rune(strings.Repeat(".", width))
	for _, iv := range ivs {
		lo := int((iv.Start - start) * int64(width) / span)
		hi := int((iv.End - start) * int64(width) / span)
		if hi > width {
			hi = width
		}
		for i := lo; i < hi; i++ {
			bar[i] = '#'
		}
	}
	fmt.Printf("%-12s %s %5.1f%%\n", label, string(bar), 100*frac)
}
