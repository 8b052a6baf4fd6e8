package decision

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/market"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// tunerConfig builds the small paper-trace window the tuner tests
// search against.
func tunerConfig(seed uint64) sim.Config {
	set := tracegen.HighVolatility(seed)
	start := set.Start() + 5*24*trace.Hour
	return sim.Config{
		Trace:          set.Slice(start, start+2*24*trace.Hour),
		History:        set.Slice(start-2*24*trace.Hour, start),
		Work:           4 * trace.Hour,
		Deadline:       8 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
		Delay:          market.FixedDelay(300),
		Seed:           seed,
	}
}

// smallTuner keeps the search budget test-sized.
func smallTuner(seed uint64, statePath string) *Tuner {
	return &Tuner{
		Cfg:         tunerConfig(31),
		Seed:        seed,
		Population:  4,
		Generations: 2,
		StatePath:   statePath,
	}
}

// TestDefaultGenomeMatchesPaperGrid pins the bridge between the tuner
// and the paper configuration: the default genome's bid grid must be
// bit-identical to the §7 grid NewAdaptive uses, and its Adaptive must
// behave identically on a real run.
func TestDefaultGenomeMatchesPaperGrid(t *testing.T) {
	g := DefaultGenome()
	bids := g.Bids()
	if len(bids) != 15 || bids[0] != 0.27 || bids[14] != 3.07 {
		t.Fatalf("default genome grid: %v", bids)
	}
	for i := 1; i < len(bids); i++ {
		if int(bids[i]*100+0.5)-int(bids[i-1]*100+0.5) != 20 {
			t.Fatalf("grid step drifted at %d: %v", i, bids)
		}
	}
	cfg := tunerConfig(31)
	fromGenome, err := sim.Run(cfg, g.Adaptive())
	if err != nil {
		t.Fatal(err)
	}
	r := &Replayer{Cfg: cfg}
	def, err := sim.Run(cfg, r.newAdaptive())
	if err != nil {
		t.Fatal(err)
	}
	if Digest(fromGenome) != Digest(def) {
		t.Fatalf("default genome diverges from NewAdaptive:\n%+v\n%+v", fromGenome, def)
	}
}

// TestGenomeClamp checks the search box invariants mutation relies on.
func TestGenomeClamp(t *testing.T) {
	g := Genome{BidLo: 9, BidHi: 0.01, BidStep: 0, WindowHours: 0, Headroom: 5, Churn: -1, MaxZones: 9}.clamp()
	if g.BidLo < 0.07 || g.BidLo > 2.47 || g.BidHi < g.BidLo+g.BidStep || g.BidStep < 0.05 {
		t.Fatalf("bid box violated: %+v", g)
	}
	if g.WindowHours < 2 || g.Headroom > 0.20 || g.Churn < 0.005 || g.MaxZones > 3 {
		t.Fatalf("threshold box violated: %+v", g)
	}
	if len(g.Bids()) == 0 {
		t.Fatalf("clamped genome has an empty grid: %+v", g)
	}
}

// TestTunerFindsNoWorseThanDefault is the acceptance bound: the search
// must return a configuration whose fitness is at least the paper
// default's on the same trace, and the result must be reproducible for
// a fixed seed.
func TestTunerFindsNoWorseThanDefault(t *testing.T) {
	res, err := smallTuner(7, "").Search()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness < res.Default.Fitness {
		t.Fatalf("search regressed below default: best %+v vs default %+v", res.Best, res.Default)
	}
	if res.Evaluated == 0 || res.Decisions == 0 {
		t.Fatalf("search did no work: %+v", res)
	}
	again, err := smallTuner(7, "").Search()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Best, again.Best) || res.Evaluated != again.Evaluated {
		t.Fatalf("same-seed searches diverged:\n%+v\n%+v", res.Best, again.Best)
	}
}

// TestTunerSeedChangesSearch sanity-checks the evolutionary stage is
// actually seed-driven: different seeds must explore different genomes.
func TestTunerSeedChangesSearch(t *testing.T) {
	a, err := smallTuner(7, "").Search()
	if err != nil {
		t.Fatal(err)
	}
	b, err := smallTuner(8, "").Search()
	if err != nil {
		t.Fatal(err)
	}
	// The deterministic grid stage is shared; the offspring are not.
	if a.Evaluated == b.Evaluated && reflect.DeepEqual(a.Best, b.Best) {
		t.Logf("seeds 7 and 8 happened to converge; weak but not wrong: %+v", a.Best)
	}
}

// TestTunerResume kills the search after its first checkpointed
// generation and resumes from the state file: the resumed search must
// finish with exactly the result an uninterrupted run produces.
func TestTunerResume(t *testing.T) {
	state := filepath.Join(t.TempDir(), "tuner.json")

	// Phase one: stop after the grid stage plus one generation.
	short := smallTuner(7, state)
	short.Generations = 1
	if _, err := short.Search(); err != nil {
		t.Fatal(err)
	}

	// Phase two: a fresh tuner resumes from the checkpoint and runs the
	// remaining generation.
	resumed, err := smallTuner(7, state).Search()
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := smallTuner(7, "").Search()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed.Best, uninterrupted.Best) || resumed.Evaluated != uninterrupted.Evaluated {
		t.Fatalf("resumed search diverged from uninterrupted:\nresumed %+v (%d evals)\nfull    %+v (%d evals)",
			resumed.Best, resumed.Evaluated, uninterrupted.Best, uninterrupted.Evaluated)
	}
}

// TestTunerRejectsForeignCheckpoint checks a checkpoint written by a
// differently-parameterised search is refused, not blended.
func TestTunerRejectsForeignCheckpoint(t *testing.T) {
	state := filepath.Join(t.TempDir(), "tuner.json")
	short := smallTuner(7, state)
	short.Generations = 1
	if _, err := short.Search(); err != nil {
		t.Fatal(err)
	}
	if _, err := smallTuner(8, state).Search(); err == nil {
		t.Fatal("tuner accepted a checkpoint from a different seed")
	}
	other := smallTuner(7, state)
	other.Weights = Weights{Cost: 2, Margin: 0.1, Waste: 0.2}
	if _, err := other.Search(); err == nil {
		t.Fatal("tuner accepted a checkpoint from different weights")
	}
}

// tinyTuner is the fuzz-sized search: the grid stage plus two
// generations of two offspring.
func tinyTuner(statePath string) *Tuner {
	return &Tuner{Cfg: tunerConfig(31), Seed: 7, Population: 2, Generations: 2, StatePath: statePath}
}

// sameSearch reports whether two searches found the same thing; the
// decision count is per process, so a resumed search differs there.
func sameSearch(a, b *SearchResult) bool {
	return reflect.DeepEqual(a.Best, b.Best) && reflect.DeepEqual(a.Default, b.Default) &&
		a.Evaluated == b.Evaluated && a.Generations == b.Generations
}

// sealedState returns the checkpoint bytes of st under a valid digest,
// as a hand edit that recomputes the digest would leave them.
func sealedState(t testing.TB, st tunerState) []byte {
	var err error
	if st.Digest, err = st.seal(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// searchState runs the tiny tuner from a checkpoint holding data.
func searchState(t testing.TB, data []byte) (*SearchResult, error) {
	path := filepath.Join(t.TempDir(), "tuner.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return tinyTuner(path).Search()
}

// TestTunerRefusesCorruptCheckpoint pins loadState's refusals. The
// first two states once panicked Search: a finished grid stage with an
// empty cache indexed an empty elite list (next_gen 99) or drew a
// parent from it (next_gen 0).
func TestTunerRefusesCorruptCheckpoint(t *testing.T) {
	w := DefaultWeights()
	def := Eval{Genome: DefaultGenome(), Fitness: -3}
	wide := Eval{Genome: Genome{BidLo: 0.27, BidHi: 9, BidStep: 0.2, WindowHours: 12, Headroom: 0.03, Churn: 0.02, MaxZones: 3}}
	cases := map[string]tunerState{
		"empty cache, next_gen 99": {Seed: 7, Weights: w, GridDone: true, NextGen: 99},
		"empty cache, next_gen 0":  {Seed: 7, Weights: w, GridDone: true},
		"negative next_gen":        {Seed: 7, Weights: w, GridDone: true, NextGen: -1, Evals: []Eval{def}},
		"generation before grid":   {Seed: 7, Weights: w, NextGen: 1, Evals: []Eval{def}},
		"genome outside the box":   {Seed: 7, Weights: w, GridDone: true, Evals: []Eval{def, wide}},
	}
	for name, st := range cases {
		if _, err := searchState(t, sealedState(t, st)); err == nil || !strings.Contains(err.Error(), "corrupt") {
			t.Errorf("%s: err %v, want a corrupt checkpoint", name, err)
		}
	}
	st := tunerState{Seed: 7, Weights: w, GridDone: true, Evals: []Eval{def}}
	stale := sealedState(t, st)
	stale = bytes.Replace(stale, []byte(`"fitness":-3`), []byte(`"fitness":-2`), 1)
	if _, err := searchState(t, stale); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("edited fitness: err %v, want a digest mismatch", err)
	}
	st.Evals[0].Fitness = math.NaN()
	if err := st.validate(); err == nil || !strings.Contains(err.Error(), "fitness NaN") {
		t.Errorf("NaN fitness: err %v", err)
	}
}

// FuzzTunerState feeds arbitrary bytes to the tiny tuner as its
// checkpoint. Search must refuse them or return the uninterrupted
// search's result. The same values resealed under a valid digest (a
// hand edit) may steer the search, but Search must refuse them or
// finish: it never panics.
func FuzzTunerState(f *testing.F) {
	want, err := tinyTuner("").Search()
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "tuner.json")
	short := tinyTuner(path)
	short.Generations = 1
	if _, err := short.Search(); err != nil {
		f.Fatal(err)
	}
	mid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mid)
	f.Add([]byte(`{"seed":7,"weights":{"cost":1,"margin":0.05,"waste":0.1},"next_gen":99,"grid_done":true,"evals":[]}`))
	f.Add([]byte(`{"seed":7,"weights":{"cost":1,"margin":0.05,"waste":0.1},"next_gen":0,"grid_done":true,"evals":[]}`))
	f.Add([]byte(`{"seed":7`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if res, err := searchState(t, data); err == nil && !sameSearch(res, want) {
			t.Fatalf("resumed into a different search:\ngot  %+v\nwant %+v", res, want)
		}
		var st tunerState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		if resealed := sealedState(t, st); !bytes.Equal(resealed, data) {
			searchState(t, resealed)
		}
	})
}
