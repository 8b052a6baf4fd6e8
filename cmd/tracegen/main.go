// Command tracegen generates synthetic EC2 CC2 spot price traces
// calibrated to the paper's published statistics, and prints summary
// statistics of generated or loaded traces.
//
// Usage:
//
//	tracegen -preset high -seed 7 -format csv -o high.csv
//	tracegen -preset year -seed 1 -stats
//	tracegen -in high.csv -stats
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/mixture"
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
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line the flag set refused (or -h); the
// flag set has printed why.
var errUsage = errors.New("usage")

// run is the command: it parses args, builds or loads the trace and
// writes it, its statistics or its mixture fits to stdout or -o.
func run(args []string, stdout, stderr io.Writer) (err error) {
	// The set shadows the package so registrations read flag.X, as the
	// documented-flags check expects.
	flag := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	flag.SetOutput(stderr)
	preset := flag.String("preset", "low", "trace preset: low, high, low-spike, moderate, year")
	seed := flag.Uint64("seed", 1, "generator seed")
	samples := flag.Int("samples", tracegen.SamplesPerMonth, "samples per zone (5-minute steps); ignored for year")
	format := flag.String("format", "csv", "output format: csv or json")
	out := flag.String("o", "", "output file (default stdout)")
	in := flag.String("in", "", "load a trace file instead of generating (format inferred from -format)")
	statsOnly := flag.Bool("stats", false, "print per-zone summary statistics instead of the trace")
	mixtureFit := flag.Bool("mixture", false, "fit a Gaussian mixture to each zone's prices (Javadi et al. methodology) instead of printing the trace")
	if err := flag.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	set, err := buildSet(*in, *preset, *seed, *samples, *format)
	if err != nil {
		return err
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}

	if *statsOnly {
		printStats(w, set)
		return nil
	}
	if *mixtureFit {
		return printMixture(w, set)
	}
	switch *format {
	case "csv":
		return set.WriteCSV(w)
	case "json":
		return set.WriteJSON(w)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

func buildSet(in, preset string, seed uint64, samples int, format string) (*trace.Set, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if format == "json" {
			return trace.ReadJSON(f)
		}
		return trace.ReadCSV(f)
	}
	switch preset {
	case "low":
		return tracegen.Generate(tracegen.LowVolatilityConfig(seed, samples))
	case "high":
		return tracegen.Generate(tracegen.HighVolatilityConfig(seed, samples))
	case "moderate":
		return tracegen.Generate(tracegen.ModerateVolatilityConfig(seed, samples))
	default:
		return tracegen.Preset(preset, seed)
	}
}

// printMixture fits and reports per-zone price mixtures, the
// distribution-modelling methodology of the paper's related work.
func printMixture(w io.Writer, set *trace.Set) error {
	for _, s := range set.Series {
		m, err := mixture.SelectComponents(s.Prices, 4, mixture.Options{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: %d components (BIC-selected), log-likelihood %.0f\n", s.Zone, len(m.Components), m.LogLikelihood)
		for _, c := range m.Components {
			fmt.Fprintf(w, "  weight %.3f  mean $%.3f  stddev %.3f\n", c.Weight, c.Mean, c.Stddev)
		}
		fmt.Fprintf(w, "  P(price > $0.81) = %.3f, P(price > $2.40) = %.3f\n", m.TailProbability(0.81), m.TailProbability(2.40))
	}
	return nil
}

func printStats(w io.Writer, set *trace.Set) {
	fmt.Fprintf(w, "zones: %d, samples/zone: %d, span: %.1f days, volatility class: %s\n",
		set.NumZones(), set.Series[0].Len(),
		float64(set.Duration())/86400, set.ClassifyVolatility())
	for _, s := range set.Series {
		sum := s.Summarize()
		fmt.Fprintf(w, "%-12s mean=%.3f var=%.4f min=%.2f max=%.2f median=%.2f changes=%d spikes>%.2f=%d\n",
			s.Zone, sum.Mean, sum.Variance, sum.Min, sum.Max, sum.Median, sum.Changes, sum.SpikeThreshold, sum.Spikes)
	}
}
