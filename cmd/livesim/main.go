// Command livesim runs the live scheduler against a replayed price
// feed in compressed wall-clock time, printing every scheduling action
// as it is issued. With -serve it also spins up a local HTTP endpoint
// in the AWS DescribeSpotPriceHistory format, fetches the history back
// through the spotapi client, and replays that — exercising the full
// deployment path without touching a cloud.
//
// Usage:
//
//	livesim -preset high -policy adaptive -speedup 6000
//	livesim -serve -preset low -policy markov-daly
//	livesim -chaos 7 -watchdog 100ms -speedup 6000
//
// With -policy adaptive, -decisions prints the recorded decision trail
// (chosen permutation and rival count per decision point) after the
// run, and -regret K replays the scenario offline, forcing the top-K
// rivals of every decision through the simulator and printing the
// realized-regret table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/faults"
	"repro/internal/livesched"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spotapi"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "livesim:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, runs the live scheduler and
// prints its actions and report to stdout.
func run(args []string, stdout, stderr io.Writer) error {
	// The set shadows the package so registrations read flag.X, as the
	// documented-flags check expects.
	flag := flag.NewFlagSet("livesim", flag.ExitOnError)
	flag.SetOutput(stderr)
	preset := flag.String("preset", "high", "trace preset: low, high, low-spike")
	seed := flag.Uint64("seed", 1, "trace and run seed")
	policy := flag.String("policy", "adaptive", "policy: "+core.StrategyUsage())
	bid := flag.Float64("bid", 0.81, "bid price for non-adaptive policies")
	n := flag.Int("n", 3, "redundancy degree for non-adaptive policies")
	workHours := flag.Float64("work", 20, "computation time C in hours")
	slack := flag.Float64("slack", 0.15, "slack fraction")
	speedup := flag.Float64("speedup", 0, "wall-clock compression (0 = as fast as possible; 6000 replays 5-minute steps at 50 ms)")
	serve := flag.Bool("serve", false, "serve the history over HTTP (AWS format) and consume it through the spotapi client")
	watchdog := flag.Duration("watchdog", 0, "feed watchdog gap: a sample gap past this drives the run to the on-demand fallback (0 disables)")
	chaos := flag.Uint64("chaos", 0, "inject a seeded fault scenario (stalls, drops, corruption, blackouts) into the feed; 0 disables")
	spans := flag.Int("spans", 0, "record simulated-time spans (run, guard, fallback, decisions) into a ring of this size and print them after the run (0: disabled)")
	decisions := flag.Bool("decisions", false, "record and print the adaptive decision trail (adaptive policy only)")
	regretK := flag.Int("regret", 0, "after the run, replay the scenario offline forcing the top-K rivals of every decision and print the regret table (adaptive policy only; 0: disabled)")
	flag.Parse(args) // ExitOnError: a bad flag exits, as the global set does

	if (*decisions || *regretK > 0) && *policy != "adaptive" {
		return errors.New("-decisions and -regret need -policy adaptive")
	}
	if *regretK > 0 && *chaos != 0 {
		return errors.New("-regret replays the feed offline; it cannot reproduce -chaos fault injection")
	}

	var tracer *obs.Tracer
	if *spans > 0 {
		tracer = obs.NewTracer(*spans)
	}

	set, err := tracegen.Preset(*preset, *seed)
	if err != nil {
		return err
	}
	strat, err := core.NewStrategy(*policy, *bid, *n, set.NumZones())
	if err != nil {
		return err
	}
	adaptive, _ := strat.(*core.Adaptive)
	if adaptive != nil {
		adaptive.Eval = &core.Evaluator{Trace: tracer}
	}
	start := set.Start() + 5*24*trace.Hour
	work := int64(*workHours * float64(trace.Hour))
	deadline := int64(float64(work)*(1+*slack)) / trace.DefaultStep * trace.DefaultStep

	history := set.Slice(start-2*24*trace.Hour, start).Rebase(start)
	run := set.Slice(start, start+deadline+2*trace.Hour).Rebase(start)

	if *serve {
		epoch := time.Now().UTC().Truncate(time.Second)
		srv := httptest.NewServer(spotapi.Handler(run, epoch))
		defer srv.Close()
		fmt.Fprintf(stdout, "serving AWS-format history at %s/spot-price-history\n", srv.URL)
		client := &spotapi.Client{BaseURL: srv.URL, HTTPClient: &http.Client{Timeout: 30 * time.Second}}
		fetched, _, err := client.Fetch(context.Background(), time.Time{}, time.Time{}, trace.DefaultStep)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fetched %d zones × %d samples through the spotapi client\n\n", fetched.NumZones(), fetched.Series[0].Len())
		run = fetched
	}

	var trail *decision.Collector
	if *decisions && adaptive != nil {
		trail = &decision.Collector{}
		adaptive.Sink = trail
	}

	var interval time.Duration
	if *speedup > 0 {
		interval = time.Duration(float64(trace.DefaultStep) / *speedup * float64(time.Second))
	}
	var feed livesched.Feed = &livesched.TraceFeed{Set: run, Interval: interval}
	if *chaos != 0 {
		gap := *watchdog
		if gap <= 0 {
			gap = time.Second
		}
		scenario := faults.RandomScenario(*chaos, int64(run.Series[0].Len()), run.Zones(), 10*gap, gap/20)
		fmt.Fprintf(stdout, "chaos seed %d: injecting %d fault plans\n", *chaos, len(scenario.Plans))
		for _, p := range scenario.Plans {
			fmt.Fprintf(stdout, "  at sample %-4d %-9s for %d samples (zones: %v)\n", p.At, p.Kind, p.Duration, p.Zones)
		}
		fmt.Fprintln(stdout)
		feed = &faults.Injector{Inner: feed, Scenario: scenario}
	}
	sched, err := livesched.New(livesched.Config{
		Work:                work,
		Deadline:            deadline,
		CheckpointCost:      300,
		RestartCost:         300,
		History:             history,
		Delay:               market.DefaultDelay(),
		Seed:                *seed,
		WatchdogGap:         *watchdog,
		FallbackOnFeedError: *chaos != 0,
		Trace:               tracer,
	}, strat, feed, livesched.LogActuator{W: stdout})
	if err != nil {
		return err
	}

	res, err := sched.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\ncompleted: cost $%.2f (spot $%.2f + on-demand $%.2f), finish %.2f h, deadline met: %v\n",
		res.Cost, res.SpotCost, res.OnDemandCost, float64(res.FinishTime)/float64(trace.Hour), res.DeadlineMet)
	if deg := sched.Degradation(); deg != (livesched.Degradation{}) {
		fmt.Fprintf(stdout, "degradation: watchdog trips %d, invalid rows skipped %d, feed errors absorbed %d\n",
			deg.WatchdogTrips, deg.InvalidRows, deg.FeedErrors)
	}
	if tracer != nil {
		printSpans(stdout, tracer)
	}
	if trail != nil {
		printDecisions(stdout, trail.Records())
	}
	if *regretK > 0 {
		cfg := sim.Config{
			Trace:          run,
			History:        history,
			Work:           work,
			Deadline:       deadline,
			CheckpointCost: 300,
			RestartCost:    300,
			Delay:          market.DefaultDelay(),
			Seed:           *seed,
		}
		return printRegret(stdout, cfg, *regretK)
	}
	return nil
}

// printDecisions dumps the recorded decision trail, one line per
// decision point.
func printDecisions(w io.Writer, recs []decision.Record) {
	fmt.Fprintf(w, "\ndecisions: %d recorded\n", len(recs))
	for _, r := range recs {
		mark := " "
		if r.Switched {
			mark = "*"
		}
		fmt.Fprintf(w, "  [%6.2fh] %-13s %s bid=%.2f n=%d %-12s (predicted $%.2f, %d rivals)\n",
			float64(r.Time)/float64(trace.Hour), r.Trigger, mark,
			r.Chosen.Bid, len(r.Chosen.Zones), r.Chosen.Policy, r.Chosen.Cost, len(r.Ranked))
	}
}

// printRegret replays the scenario offline — same trace, history, seed
// and delay model as the live run — records the baseline decision
// trail, forces the top-k rivals of every decision through the
// simulator, and prints the realized-regret table.
func printRegret(w io.Writer, cfg sim.Config, topK int) error {
	r := &decision.Replayer{Cfg: cfg, TopK: topK}
	baseline, dlog, err := r.Baseline()
	if err != nil {
		return err
	}
	rep, err := r.Replay(baseline, dlog)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nregret: offline replay, top-%d rivals per decision\n\n", topK)
	return rep.WriteTable(w)
}

// printSpans dumps the recorded span trail, oldest first, with
// simulated-time spans rendered in hours.
func printSpans(w io.Writer, tracer *obs.Tracer) {
	spans := tracer.Spans()
	fmt.Fprintf(w, "\ntrace: %d spans recorded (ring holds %d)\n", tracer.Total(), len(spans))
	for _, s := range spans {
		attrs := ""
		for _, a := range s.Attrs {
			attrs += fmt.Sprintf(" %s=%s", a.Key, a.Value)
		}
		if s.Clock == obs.SimClock {
			fmt.Fprintf(w, "  [%6.2fh → %6.2fh] %-24s%s\n",
				float64(s.Start)/float64(trace.Hour), float64(s.End)/float64(trace.Hour), s.Name, attrs)
		} else {
			fmt.Fprintf(w, "  [%s] %-24s%s\n",
				time.Duration(s.End-s.Start).Round(time.Microsecond), s.Name, attrs)
		}
	}
}
