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
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/mixture"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	preset := flag.String("preset", "low", "trace preset: low, high, low-spike, moderate, year")
	seed := flag.Uint64("seed", 1, "generator seed")
	samples := flag.Int("samples", tracegen.SamplesPerMonth, "samples per zone (5-minute steps); ignored for year")
	format := flag.String("format", "csv", "output format: csv or json")
	out := flag.String("o", "", "output file (default stdout)")
	in := flag.String("in", "", "load a trace file instead of generating (format inferred from -format)")
	statsOnly := flag.Bool("stats", false, "print per-zone summary statistics instead of the trace")
	mixtureFit := flag.Bool("mixture", false, "fit a Gaussian mixture to each zone's prices (Javadi et al. methodology) instead of printing the trace")
	flag.Parse()

	set, err := buildSet(*in, *preset, *seed, *samples, *format)
	if err != nil {
		log.Fatal(err)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}

	if *statsOnly {
		printStats(w, set)
		return
	}
	if *mixtureFit {
		if err := printMixture(w, set); err != nil {
			log.Fatal(err)
		}
		return
	}
	switch *format {
	case "csv":
		err = set.WriteCSV(w)
	case "json":
		err = set.WriteJSON(w)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		log.Fatal(err)
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
