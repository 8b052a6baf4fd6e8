// Command paperfigs regenerates every table and figure of the paper's
// evaluation from the simulation harness.
//
// Usage:
//
//	paperfigs [flags] <experiment>
//
// where experiment is one of: fig1, fig2, fig3 (the paper's didactic
// timelines and availability view), var, fig4, table2, table3, fig5,
// fig6, headline, oracle (a clairvoyant-gap analysis beyond the paper),
// convergence, yearbound, all. Below 5 windows, all skips convergence.
//
// Flags control scale: -windows selects the number of partially
// overlapping experiment windows per regime (the paper uses 80; smaller
// values are faster with thinner tails; below 1 is a usage error).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiment"
	"repro/internal/report"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

// errUsage reports a command line without exactly one experiment name,
// or with fewer than one window.
var errUsage = errors.New("usage")

// run is the command: it parses args, renders the named experiments to
// stdout and writes their figure panels as CSV and SVG when asked.
func run(args []string, stdout, stderr io.Writer) error {
	// The set shadows the package so registrations read flag.X, as the
	// documented-flags check expects.
	flag := flag.NewFlagSet("paperfigs", flag.ExitOnError)
	flag.SetOutput(stderr)
	seed := flag.Uint64("seed", 1, "suite seed (traces and run streams)")
	windows := flag.Int("windows", experiment.DefaultWindows, "experiment windows per regime (paper: 80)")
	workers := flag.Int("workers", 0, "worker pool size for suite runs (0 = all cores); output is identical at any setting")
	csvDir := flag.String("csv", "", "also write per-figure boxplot CSVs into this directory")
	svgDir := flag.String("svg", "", "also write per-figure SVG boxplot panels into this directory")
	tc := flag.Int64("tc", 300, "checkpoint cost for fig4 (the paper plots 300 s and tabulates 900 s)")
	flag.Usage = func() {
		fmt.Fprint(stderr, "usage: paperfigs [flags] ")
		for _, st := range report.SuiteSteps(*tc) {
			fmt.Fprint(stderr, st.Name, "|")
		}
		fmt.Fprintln(stderr, "all")
		flag.PrintDefaults()
	}
	flag.Parse(args) // ExitOnError: a bad flag exits, as the global set does
	if flag.NArg() != 1 || *windows < 1 {
		flag.Usage()
		return errUsage
	}

	steps, err := report.SelectSteps(report.SuiteSteps(*tc), flag.Arg(0), *windows)
	if err != nil {
		return err
	}
	for _, dir := range []string{*csvDir, *svgDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
	}
	s := experiment.NewQuickSuite(*seed, *windows)
	s.Workers = *workers
	panels, err := report.RunSteps(stdout, s, steps)
	if err != nil {
		return err
	}
	for _, p := range panels {
		err := writeFile(*csvDir, p.Name+".csv", func(w io.Writer) error { return report.WriteBoxesCSV(w, p.Labels, p.Boxes) })
		if err == nil {
			err = writeFile(*svgDir, p.Name+".svg", func(w io.Writer) error { return report.WriteSVG(w, p.SVGPanel) })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates name in dir and writes it through write; with no
// dir it writes nothing.
func writeFile(dir, name string, write func(io.Writer) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
