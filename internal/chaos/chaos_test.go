package chaos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSoakTwentyScenarios is the acceptance criterion in test form: a
// soak across 20 seeded fault plans where every run meets the deadline
// or provably engages the fallback, with no goroutine leaks and
// byte-identical results per seed (Soak replays every seed twice and
// fails on divergence), each seed's strategy and digest pinned by
// testdata/soak_seed1.golden.
func TestSoakTwentyScenarios(t *testing.T) {
	rep, err := Soak(context.Background(), Config{Seed: 1, Runs: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 20 {
		t.Fatalf("soaked %d runs, want 20", len(rep.Runs))
	}
	for _, r := range rep.Runs {
		if !r.DeadlineMet && !r.Fallback {
			t.Fatalf("seed %d missed the deadline without fallback", r.Seed)
		}
		if len(r.Scenario.Plans) == 0 {
			t.Fatalf("seed %d soaked with no faults", r.Seed)
		}
		if r.Digest == "" {
			t.Fatalf("seed %d has no digest", r.Seed)
		}
	}
	var got strings.Builder
	for _, r := range rep.Runs {
		fmt.Fprintf(&got, "%d %s %s\n", r.Seed, r.Strategy, r.Digest)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "soak_seed1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("per-seed strategies and digests drifted from testdata/soak_seed1.golden:\ngot:\n%swant:\n%s", got.String(), want)
	}
	// The seeded scenario space must actually exercise the degraded
	// paths, not just clean runs that happen to pass.
	if rep.Fallbacks == 0 {
		t.Fatal("no run engaged the on-demand fallback")
	}
	if rep.WatchdogTrips == 0 && rep.InvalidRows == 0 && rep.FeedErrors == 0 {
		t.Fatal("no degraded path was exercised")
	}
}

func TestSoakSweepsStrategies(t *testing.T) {
	rep, err := Soak(context.Background(), Config{Seed: 1, Runs: 12})
	if err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, r := range rep.Runs {
		families[strings.Split(r.Strategy, "/")[0]] = true
	}
	if len(families) < 2 {
		t.Fatalf("strategy sweep too narrow: %v", families)
	}
}

func TestSoakPresets(t *testing.T) {
	for _, preset := range []string{"low", "low-spike"} {
		if _, err := Soak(context.Background(), Config{Preset: preset, Seed: 3, Runs: 2}); err != nil {
			t.Fatalf("preset %s: %v", preset, err)
		}
	}
	if _, err := Soak(context.Background(), Config{Preset: "bogus", Runs: 1}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestSoakHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Soak(ctx, Config{Runs: 5}); err == nil {
		t.Fatal("cancelled soak returned no error")
	}
}

func TestSoakLogsOneLinePerRun(t *testing.T) {
	var sb strings.Builder
	rep, err := Soak(context.Background(), Config{Seed: 9, Runs: 3, Log: &sb})
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != len(rep.Runs) {
		t.Fatalf("logged %d lines for %d runs", lines, len(rep.Runs))
	}
	if rep.Elapsed <= 0 || rep.Elapsed > time.Minute {
		t.Fatalf("implausible elapsed %v", rep.Elapsed)
	}
}
