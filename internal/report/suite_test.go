package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiment"
)

// readDigests reads a JSON object of digests keyed "seed/windows".
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// TestSuiteDigests regenerates `paperfigs -windows 2 all` at seeds 1 and
// 2, each at one worker and at the default pool, and checks two
// digests. The text's FNV-64a must equal the benchmark's committed
// suite digest for that seed and window count. The suite's cost digest
// (every run cost, bit for bit) must equal testdata/suite_costs.json:
// it catches a change that moves a cost by less than the printed cent.
// Both worker settings must agree. At 40 windows, scripts/check.sh
// compares the text with paperfigs_output.txt and the panels with
// figures/.
func TestSuiteDigests(t *testing.T) {
	const windows = 2
	texts := readDigests(t, filepath.Join("..", "..", "bench", "testdata", "suite_digests.json"))
	costs := readDigests(t, filepath.Join("testdata", "suite_costs.json"))
	for _, seed := range []uint64{1, 2} {
		key := fmt.Sprintf("%d/%d", seed, windows)
		for _, workers := range []int{1, 0} {
			s := experiment.NewQuickSuite(seed, windows)
			s.Workers = workers
			steps, err := SelectSteps(SuiteSteps(300), "all", windows)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			panels, err := RunSteps(&out, s, steps)
			if err != nil {
				t.Fatalf("seed %d, workers %d: %v", seed, workers, err)
			}
			if len(panels) != 20 {
				t.Errorf("seed %d, workers %d: %d panels, want 20", seed, workers, len(panels))
			}
			h := fnv.New64a()
			h.Write(out.Bytes())
			if got := fmt.Sprintf("%016x", h.Sum64()); got != texts[key] {
				t.Errorf("seed %d, workers %d: text digest %s, committed %s", seed, workers, got, texts[key])
			}
			if got := fmt.Sprintf("%016x", s.CostDigest()); got != costs[key] {
				t.Errorf("seed %d, workers %d: cost digest %s, committed %s", seed, workers, got, costs[key])
			}
		}
	}
}

// TestSelectStepsSkipsConvergence pins the suite's one window-count
// skip: "all" leaves out convergence below 5 windows, its smallest
// prefix count, and keeps it from 5 on.
func TestSelectStepsSkipsConvergence(t *testing.T) {
	steps := SuiteSteps(300)
	for windows, n := range map[int]int{4: len(steps) - 1, 5: len(steps)} {
		all, err := SelectSteps(steps, "all", windows)
		if err != nil || len(all) != n {
			t.Fatalf("all at %d windows: %d steps (%v), want %d", windows, len(all), err, n)
		}
	}
}
