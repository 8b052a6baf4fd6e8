package trace_test

import (
	"testing"

	"repro/internal/experiment"
	"repro/internal/trace"
)

// TestSuiteBuildsNoColumn pins where a suite's state columns are built:
// not when the regime traces are generated and cached, nor when they
// are tiled into windows, but on a run's first chain fit.
func TestSuiteBuildsNoColumn(t *testing.T) {
	s := experiment.NewQuickSuite(1, 4)
	for _, name := range []string{experiment.RegimeLow, experiment.RegimeLowSpike, experiment.RegimeHigh} {
		set := s.Regime(name)
		s.ExperimentWindows(name, experiment.Slacks[0])
		for _, sr := range set.Series {
			if trace.StatesBuilt(sr) {
				t.Fatalf("regime %s zone %s: its state column is built before any fit", name, sr.Zone)
			}
		}
	}
}
