package chaos

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestFleetSoak drives the full fleet chaos harness over a seed window
// chosen to exercise every fleet fault kind — backend kill/restart,
// LB↔backend partition, slow-loris subscribers and feed gaps — and
// checks the aggregate contract on top of the per-scenario invariants
// FleetSoak itself enforces (zero client-visible errors, monotonic
// generations, bounded catch-up, determinism, no leaks).
func TestFleetSoak(t *testing.T) {
	cfg := FleetConfig{Seed: 1, Scenarios: 5, Ticks: 64}
	var log bytes.Buffer
	cfg.Log = &log
	rep, err := FleetSoak(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if len(rep.Runs) != cfg.Scenarios {
		t.Fatalf("%d runs, want %d", len(rep.Runs), cfg.Scenarios)
	}
	// The window must exercise the whole fleet taxonomy, or the soak is
	// vacuous.
	if rep.Kills == 0 || rep.Partitions == 0 || rep.SlowClients == 0 || rep.FeedGaps == 0 {
		t.Fatalf("fault coverage hole: kills=%d partitions=%d slow=%d gaps=%d",
			rep.Kills, rep.Partitions, rep.SlowClients, rep.FeedGaps)
	}
	if rep.Restores != rep.Kills {
		t.Fatalf("restores=%d for kills=%d: every kill must recover from its snapshot", rep.Restores, rep.Kills)
	}
	// Snapshot resume, not full replay: no single restore may approach
	// the horizon.
	if rep.MaxCatchup <= 0 || rep.MaxCatchup >= cfg.Ticks/2 {
		t.Fatalf("max catch-up %d of %d ticks: not a bounded resume", rep.MaxCatchup, cfg.Ticks)
	}
	if rep.Reconnects < len(rep.Runs) {
		t.Fatalf("%d live SSE connections over %d runs: some run never connected", rep.Reconnects, len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if r.Requests != cfg.Ticks {
			t.Fatalf("seed %d: %d routed quotes, want %d", r.Seed, r.Requests, cfg.Ticks)
		}
		if r.Digest == "" {
			t.Fatalf("seed %d: empty digest", r.Seed)
		}
	}
}

// TestFleetSoakTwentyScenarios pins the fleet soak that
// scripts/check.sh runs (seed 1, 20 scenarios, 3 backends, 64 ticks):
// each scenario's digest must equal testdata/fleet_seed1.golden.
func TestFleetSoakTwentyScenarios(t *testing.T) {
	rep, err := FleetSoak(context.Background(), FleetConfig{Seed: 1, Scenarios: 20, Backends: 3, Ticks: 64})
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, r := range rep.Runs {
		fmt.Fprintf(&got, "%d %s\n", r.Seed, r.Digest)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fleet_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("per-seed digests drifted from testdata/fleet_seed1.golden:\ngot:\n%swant:\n%s", got.String(), want)
	}
}

// TestFleetSoakReproducible pins cross-soak determinism: running the
// same configuration twice yields identical per-seed runs, field for
// field — the property that makes a fleet chaos failure replayable and
// chaossim -fleet -json's per-run records repeat.
func TestFleetSoakReproducible(t *testing.T) {
	cfg := FleetConfig{Seed: 11, Scenarios: 2, Ticks: 48}
	a, err := FleetSoak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FleetSoak(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Fatalf("runs diverge across soaks:\n%+v\n%+v", a.Runs, b.Runs)
	}
}
