// Bidding: sweep the bid price across the paper's grid for single-zone
// Periodic and Markov-Daly on a volatile market, exposing the
// cost-versus-bid landscape behind Table 2/3's "sweet spot" bids:
// too low and the instance is never granted (pure on-demand cost), too
// high and spike hours are paid at their full hour-start price.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)

	market := tracegen.HighVolatility(11)
	const work = 20 * trace.Hour
	const deadline = 30 * trace.Hour // 50% slack

	policies := []core.PolicySpec{{Family: core.FamilyPeriodic}, {Family: core.FamilyMarkovDaly}}

	fmt.Println("median cost over 8 windows vs bid (single zone, volatile market, 50% slack)")
	fmt.Println()
	fmt.Printf("%6s  %-12s %-12s\n", "bid", policies[0], policies[1])

	for _, bid := range core.BidGrid() {
		medians := make([]float64, len(policies))
		for pi, pol := range policies {
			var costs []float64
			for day := 3; day <= 24; day += 3 {
				start := market.Start() + int64(day)*24*trace.Hour
				cfg := sim.Config{
					Trace:          market.Slice(start, start+deadline+2*trace.Hour),
					History:        market.Slice(start-2*24*trace.Hour, start),
					Work:           work,
					Deadline:       deadline,
					CheckpointCost: 300,
					RestartCost:    300,
					Seed:           uint64(day),
				}
				res, err := sim.Run(cfg, pol.Static(bid, 1))
				if err != nil {
					log.Fatal(err)
				}
				costs = append(costs, res.Cost)
			}
			medians[pi] = stats.Quantile(costs, 0.5)
		}
		bar := strings.Repeat("#", int(medians[1]/1.2))
		fmt.Printf("%6.2f  $%-11.2f $%-11.2f %s\n", bid, medians[0], medians[1], bar)
	}
	fmt.Println()
	fmt.Println("(bars: markov-daly median; $48.00 would be the pure on-demand cost)")
}
