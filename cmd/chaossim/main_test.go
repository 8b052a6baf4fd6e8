package main

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/chaos"
)

// TestFleetJSONRunsRepeat pins the -fleet -json report's per-run
// records: two soaks at one seed encode byte-identical runs, and the
// live client's reconnects appear once, at the top level.
func TestFleetJSONRunsRepeat(t *testing.T) {
	cfg := chaos.FleetConfig{Seed: 2, Scenarios: 2, Backends: 3, Ticks: 48}
	var runs [2][]byte
	for i := range runs {
		rep, err := chaos.FleetSoak(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := newFleetJSON(rep, cfg)
		if out.Reconnects < len(out.Runs) {
			t.Fatalf("soak %d: %d reconnects over %d runs", i, out.Reconnects, len(out.Runs))
		}
		if runs[i], err = json.Marshal(out.Runs); err != nil {
			t.Fatal(err)
		}
	}
	if string(runs[0]) != string(runs[1]) {
		t.Fatalf("per-run records differ between two soaks at one seed:\n%s\n%s", runs[0], runs[1])
	}
}
