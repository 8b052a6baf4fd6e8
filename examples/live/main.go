// Live: drive the deployable scheduler against a streaming price feed.
// The same Algorithm 1 state machine that the paper's evaluation ran
// offline consumes one 5-minute price sample at a time and emits every
// externally visible action — spot requests, terminations, checkpoints,
// and the deadline-guard migration — exactly as a production controller
// wired to cloud APIs would.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/livesched"
	"repro/internal/market"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)

	set := tracegen.HighVolatility(3)
	start := set.Start() + 5*24*trace.Hour

	// Rebase the window so the feed starts at time zero, as a live
	// subscription would.
	history := set.Slice(start-2*24*trace.Hour, start).Rebase(start)
	feedData := set.Slice(start, start+12*trace.Hour).Rebase(start)

	sched, err := livesched.New(livesched.Config{
		Work:           8 * trace.Hour,
		Deadline:       11 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		History:        history,
		Delay:          market.DefaultDelay(),
		Seed:           1,
	},
		core.Redundant(core.NewMarkovDaly(), 0.81, []int{0, 1, 2}),
		&livesched.TraceFeed{Set: feedData}, // Interval: 300*time.Millisecond for 1000× replay
		livesched.LogActuator{W: os.Stdout},
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sched.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndone: $%.2f (spot $%.2f, on-demand $%.2f), %d checkpoints, %d kills, deadline met: %v\n",
		res.Cost, res.SpotCost, res.OnDemandCost, res.Checkpoints, res.ProviderKills, res.DeadlineMet)
}
