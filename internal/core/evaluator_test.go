package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
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
func permutationSpecs(cands []PolicySpec) []sim.RunSpec {
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

// sweepAttrs returns the attributes of the tracer's eval.sweep spans,
// oldest first.
func sweepAttrs(tr *obs.Tracer) []map[string]string {
	var out []map[string]string
	for _, s := range tr.Spans() {
		if s.Name != "eval.sweep" {
			continue
		}
		attrs := map[string]string{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value
		}
		out = append(out, attrs)
	}
	return out
}

// TestSweepReplaysOneClassEach pins the eval.sweep span's replays
// attribute: over a window whose prices stay below every grid bid, all
// 15 bids of a (policy, zone set) cell fall into one replay class, so
// Rank's 90 specs (2 candidates × N 1–3 × 15 bids) take 6 replays. The
// estimates are still the oracle's, and an oracle sweep replays every
// spec.
func TestSweepReplaysOneClassEach(t *testing.T) {
	series := make([]*trace.Series, 3)
	for z := range series {
		prices := make([]float64, 144)
		for i := range prices {
			prices[i] = 0.1 + 0.01*float64((i/(3+z))%13)
		}
		series[z] = &trace.Series{Zone: fmt.Sprintf("z%d", z), Epoch: 0, Step: 300, Prices: prices}
	}
	req := PlanRequest{
		History:        trace.MustNewSet(series...),
		Work:           4 * trace.Hour,
		Deadline:       8 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
	}
	var plans [2][]Plan
	for i, disable := range []bool{false, true} {
		tr := obs.NewTracer(16)
		ev := &Evaluator{Trace: tr, DisableBatch: disable}
		var err error
		if plans[i], err = ev.Rank(req); err != nil {
			t.Fatal(err)
		}
		want := map[string]string{"specs": "90", "replays": "6", "batched": "true"}
		if disable {
			want = map[string]string{"specs": "90", "replays": "90", "batched": "false"}
		}
		if got := sweepAttrs(tr); len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("DisableBatch %v: eval.sweep attributes %v, want one span with %v", disable, got, want)
		}
	}
	if !reflect.DeepEqual(plans[0], plans[1]) {
		t.Fatal("batched plans diverge from the oracle's")
	}
}
