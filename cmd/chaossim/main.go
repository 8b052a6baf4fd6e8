// Command chaossim soaks the live scheduling pipeline under seeded
// fault injection: each run replays a synthetic trace through the fault
// injector (latency, drops, duplicates, corruption, stalls, zone
// blackouts), the retry decorator and the scheduler with its feed
// watchdog, then verifies the paper's invariants — deadline met or
// on-demand fallback provably engaged, a consistent billing ledger, no
// goroutine leaks, and bit-for-bit determinism per seed (every scenario
// is replayed twice and the results compared).
//
// With -fleet it soaks the serving topology instead: quotelb routing
// over N in-process quoted instances with per-backend snapshot stores,
// under seeded fleet faults (backend kill/restart, LB↔backend
// partitions, slow-loris subscribers, feed gaps) while clients keep
// quoting and streaming through the front door. Invariants: zero
// client-visible errors within the retry budget, monotonic plan
// generations across reconnects and failovers, snapshot resume (never
// full replay) after a kill, no goroutine leaks, and byte-identical
// per-seed reports.
//
// It exits non-zero on the first violated invariant, which makes it a
// CI gate; scripts/check.sh runs a short soak of both modes.
//
// Usage:
//
//	chaossim -runs 20 -seed 1 -preset high
//	chaossim -runs 100 -watchdog 50ms -v
//	chaossim -fleet -runs 20 -backends 3
//	chaossim -fleet -runs 20 -json > BENCH_chaos_fleet.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/chaos"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaossim: ")

	runs := flag.Int("runs", 20, "fault scenarios to soak (each replayed twice for determinism)")
	seed := flag.Uint64("seed", 1, "base seed; run i uses seed+i")
	preset := flag.String("preset", "high", "trace preset: low, high, low-spike")
	work := flag.Float64("work", 4, "computation time C in hours")
	slack := flag.Float64("slack", 0.5, "deadline slack fraction")
	watchdog := flag.Duration("watchdog", 100*time.Millisecond, "feed watchdog gap (stalls sleep 10x this)")
	fleet := flag.Bool("fleet", false, "soak the quotelb/quoted serving topology under fleet faults instead of the scheduler pipeline")
	backends := flag.Int("backends", 3, "fleet size in -fleet mode")
	ticks := flag.Int("ticks", 96, "feed horizon per scenario in -fleet mode")
	checkpointEvery := flag.Int("checkpoint-every", 8, "streamer snapshot cadence in feed ticks in -fleet mode")
	jsonOut := flag.Bool("json", false, "in -fleet mode, print the aggregate report as JSON (for BENCH_chaos_fleet.json)")
	verbose := flag.Bool("v", false, "print one line per run")
	flag.Parse()

	var lw io.Writer
	if *verbose {
		lw = os.Stderr
	}
	if *fleet {
		runFleet(chaos.FleetConfig{
			Seed:            *seed,
			Scenarios:       *runs,
			Backends:        *backends,
			Ticks:           *ticks,
			CheckpointEvery: *checkpointEvery,
			Log:             lw,
		}, *jsonOut)
		return
	}
	rep, err := chaos.Soak(context.Background(), chaos.Config{
		Preset:      *preset,
		Seed:        *seed,
		Runs:        *runs,
		WorkHours:   *work,
		SlackFrac:   *slack,
		WatchdogGap: *watchdog,
		Log:         lw,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chaos soak passed: %d seeded scenarios (each replayed twice) in %s\n",
		len(rep.Runs), rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("  fallbacks engaged  %d/%d\n", rep.Fallbacks, len(rep.Runs))
	fmt.Printf("  watchdog trips     %d\n", rep.WatchdogTrips)
	fmt.Printf("  invalid rows       %d\n", rep.InvalidRows)
	fmt.Printf("  feed errors        %d\n", rep.FeedErrors)
	fmt.Println("  invariants         deadline-or-fallback, ledger-consistent, leak-free, deterministic")
}

// fleetJSON is the BENCH_chaos_fleet.json shape: the aggregate fleet
// counters plus one entry per scenario. Reconnects and ElapsedSec
// depend on scheduling; every per-run field is digested backend state,
// so runs repeat at one seed.
type fleetJSON struct {
	Scenarios   int            `json:"scenarios"`
	Backends    int            `json:"backends"`
	Ticks       int            `json:"ticks_per_scenario"`
	Kills       int            `json:"kills"`
	Partitions  int            `json:"partitions"`
	SlowClients int            `json:"slow_clients"`
	FeedGaps    int            `json:"feed_gaps"`
	Restores    int            `json:"restores"`
	Catchup     int            `json:"catchup_ticks_total"`
	MaxCatchup  int            `json:"max_catchup_ticks"`
	Reconnects  int            `json:"sse_reconnects"`
	ElapsedSec  float64        `json:"elapsed_seconds"`
	Runs        []fleetRunJSON `json:"runs"`
}

// fleetRunJSON is one scenario's record in fleetJSON.
type fleetRunJSON struct {
	Seed     uint64 `json:"seed"`
	Faults   int    `json:"faults"`
	Restores int    `json:"restores"`
	Catchup  int    `json:"catchup_ticks"`
	Digest   string `json:"digest"`
}

// newFleetJSON builds the JSON report of a fleet soak run under cfg,
// with cfg's defaults resolved.
func newFleetJSON(rep *chaos.FleetReport, cfg chaos.FleetConfig) fleetJSON {
	out := fleetJSON{
		Scenarios:   len(rep.Runs),
		Backends:    cfg.Backends,
		Ticks:       cfg.Ticks,
		Kills:       rep.Kills,
		Partitions:  rep.Partitions,
		SlowClients: rep.SlowClients,
		FeedGaps:    rep.FeedGaps,
		Restores:    rep.Restores,
		Catchup:     rep.CatchupTicks,
		MaxCatchup:  rep.MaxCatchup,
		Reconnects:  rep.Reconnects,
		ElapsedSec:  rep.Elapsed.Seconds(),
	}
	for _, r := range rep.Runs {
		out.Runs = append(out.Runs, fleetRunJSON{r.Seed, len(r.Scenario.Plans), r.Restores, r.CatchupTicks, r.Digest})
	}
	return out
}

// runFleet soaks the fleet topology and prints either the human summary
// or the JSON report.
func runFleet(cfg chaos.FleetConfig, jsonOut bool) {
	rep, err := chaos.FleetSoak(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 3
	}
	if cfg.Ticks <= 0 {
		cfg.Ticks = 96
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(newFleetJSON(rep, cfg)); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("fleet chaos soak passed: %d seeded scenarios (each replayed twice) over %d backends in %s\n",
		len(rep.Runs), cfg.Backends, rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("  backend kills      %d (all restored from snapshots)\n", rep.Kills)
	fmt.Printf("  partitions         %d\n", rep.Partitions)
	fmt.Printf("  slow clients       %d\n", rep.SlowClients)
	fmt.Printf("  feed gaps          %d\n", rep.FeedGaps)
	fmt.Printf("  catch-up ticks     %d total, %d max per restore (horizon %d)\n",
		rep.CatchupTicks, rep.MaxCatchup, cfg.Ticks)
	fmt.Println("  invariants         zero client errors, monotonic generations, snapshot resume, leak-free, deterministic")
}
