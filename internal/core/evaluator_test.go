package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// estimationHistory builds a 12-hour three-zone history window the way
// Adaptive does before a decision point.
func estimationHistory(seed uint64) *trace.Set {
	set := tracegen.HighVolatility(seed)
	start := set.Start() + 3*24*trace.Hour
	return set.Slice(start-12*trace.Hour, start)
}

// permutationSpecs lays out a small bid × zones × policy grid over the
// candidates (nil selects DefaultAdaptiveCandidates) with fresh policy
// instances, as estimateSlots does.
func permutationSpecs(cands []PolicyFactory) []sim.RunSpec {
	if cands == nil {
		cands = DefaultAdaptiveCandidates()
	}
	var specs []sim.RunSpec
	for _, zones := range [][]int{{0}, {0, 1}, {0, 1, 2}} {
		for _, bid := range []float64{0.47, 0.81, 1.67} {
			for _, fac := range cands {
				specs = append(specs, sim.RunSpec{Bid: bid, Zones: zones, Policy: fac.New()})
			}
		}
	}
	return specs
}

// TestMeasureAllMatchesSequentialMeasure is the evaluator's golden
// determinism contract: the parallel fan-out must return bit-identical
// estimates to one-at-a-time measurement at any worker count.
func TestMeasureAllMatchesSequentialMeasure(t *testing.T) {
	hist := estimationHistory(17)
	serial := &Evaluator{Workers: 1}
	want := make([]estimate, 0, 18)
	for _, spec := range permutationSpecs(nil) {
		want = append(want, serial.Measure(hist, spec, 300, 300))
	}
	for _, workers := range []int{0, 1, 2, 8} {
		ev := &Evaluator{Workers: workers}
		got := ev.MeasureAll(hist, permutationSpecs(nil), 300, 300)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: parallel estimates diverge from serial ones\nwant %v\ngot  %v",
				workers, want, got)
		}
	}
	var nonzero int
	for _, e := range want {
		if e.progressRate > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("every permutation measured zero progress; scenario too tame")
	}
}

// TestAdaptiveResultIndependentOfWorkers runs the full Adaptive scheme
// with a serial and a parallel evaluator and requires identical runs.
func TestAdaptiveResultIndependentOfWorkers(t *testing.T) {
	hist, run := window(tracegen.HighVolatility(23), 5, 2)
	cfg := testConfig(hist, run, 300)

	results := make([]*sim.Result, 2)
	for i, workers := range []int{1, 8} {
		a := NewAdaptive()
		a.Eval = &Evaluator{Workers: workers}
		res, err := sim.Run(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = res
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("Adaptive diverges across worker counts:\nserial:   %+v\nparallel: %+v", results[0], results[1])
	}
}

// TestMeasureAllConcurrentUse hammers one batched and one oracle
// evaluator from many goroutines running full permutation sweeps over
// mixed Markov-Daly profiles; -race exercises the pooled scratch, and
// every round must agree with the first.
func TestMeasureAllConcurrentUse(t *testing.T) {
	hist := estimationHistory(29)
	evs := []*Evaluator{NewEvaluator(), {DisableBatch: true}}
	cands := append(DefaultAdaptiveCandidates(), spanProfiles()[1])
	want := evs[0].MeasureAll(hist, permutationSpecs(cands), 300, 300)

	const goroutines = 6
	got := make([][]estimate, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = evs[g%len(evs)].MeasureAll(hist, permutationSpecs(cands), 300, 300)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(want, got[g]) {
			t.Errorf("goroutine %d: evaluation diverged from the first round", g)
		}
	}
}

// TestPackZones pins the permutation-key zone encoding.
func TestPackZones(t *testing.T) {
	a, ok := packZones([]int{0, 1, 2})
	if !ok || a == 0 {
		t.Fatalf("packZones({0,1,2}) = %#x, %v", a, ok)
	}
	b, ok := packZones([]int{0, 2, 1})
	if !ok || a == b {
		t.Fatalf("order must distinguish keys: %#x vs %#x", a, b)
	}
	if _, ok := packZones([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}); ok {
		t.Fatal("nine zones must disable packing")
	}
	if _, ok := packZones([]int{300}); ok {
		t.Fatal("zone index above 0xfe must disable packing")
	}
}
