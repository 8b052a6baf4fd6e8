package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/markov"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// regimeTrace generates the named paper trace regime.
func regimeTrace(regime string, seed uint64) *trace.Set {
	switch regime {
	case "low":
		return tracegen.LowVolatility(seed)
	case "high":
		return tracegen.HighVolatility(seed)
	case "megaspike":
		return tracegen.LowVolatilityWithMegaSpike(seed)
	case "moderate":
		return tracegen.MustGenerate(tracegen.ModerateVolatilityConfig(seed, 7*24*12))
	}
	panic("unknown regime " + regime)
}

// paperRegimes lists history windows cut from every trace regime the
// paper experiments run on, at several decision times each.
func paperRegimes() map[string]*trace.Set {
	out := map[string]*trace.Set{}
	for _, name := range []string{"low", "high", "megaspike", "moderate"} {
		set := regimeTrace(name, 17)
		for _, day := range []int64{1, 3, 5} {
			at := set.Start() + day*24*trace.Hour
			out[fmt.Sprintf("%s/day%d", name, day)] = set.Slice(at-12*trace.Hour, at)
		}
	}
	return out
}

// twoProfiles lists the default Markov-Daly profile beside a variant.
func twoProfiles(variant PolicySpec) []PolicySpec {
	return []PolicySpec{{Family: FamilyMarkovDaly}, variant}
}

// youngProfiles and spanProfiles are the two-profile candidate lists:
// the variant differs only in its interval estimate (Young's
// first-order one), or only in its history span.
func youngProfiles() []PolicySpec {
	return twoProfiles(PolicySpec{Family: FamilyMarkovDaly, FirstOrder: true})
}

func spanProfiles() []PolicySpec {
	return twoProfiles(PolicySpec{Family: FamilyMarkovDaly, HistorySpan: 6 * trace.Hour})
}

// TestBatchedMatchesOracleOffGridSpans checks history spans off the step
// grid — whose windows end a sample before the decision step — and a
// span shorter than one step, whose window is empty, against the
// oracle, in the sweep and the stream.
func TestBatchedMatchesOracleOffGridSpans(t *testing.T) {
	oracle := &Evaluator{Workers: 1, DisableBatch: true}
	batched := &Evaluator{Workers: 1}
	hist := estimationHistory(31)
	for _, span := range []int64{6*trace.Hour + 100, 3*trace.Hour - 1, 200} {
		t.Run(fmt.Sprint(span), func(t *testing.T) {
			cands := twoProfiles(PolicySpec{Family: FamilyMarkovDaly, HistorySpan: span})
			want := oracle.MeasureAll(hist, permutationSpecs(cands), 300, 300)
			got := batched.MeasureAll(hist, permutationSpecs(cands), 300, 300)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("sweep: batched estimates diverge from the oracle\noracle  %v\nbatched %v", want, got)
			}
			streamMatchesOracle(t, hist, cands, 6)
		})
	}
}

// candidateSet resolves a differential-table candidate-set name.
func candidateSet(name string) []PolicySpec {
	switch name {
	case "periodic":
		return DefaultAdaptiveCandidates()[:1]
	case "default":
		return DefaultAdaptiveCandidates()
	case "two-profile":
		// Both profiles build policies of one Name(): nothing keyed by
		// the policy's name alone may tell them apart.
		return spanProfiles()
	}
	panic("unknown candidate set " + name)
}

// TestBatchedMatchesOracleOnPaperTraces is the engines' differential
// table. For every paper regime × seed × candidate set, three legs must
// be bit-identical to the per-permutation sim.Machine oracle — same
// floats, not just close ones:
//   - sweep: batched MeasureAll over the candidates' permutation grid;
//   - stream: a StreamEvaluator fed the 12-hour window tick by tick,
//     without falling back, against oracle Rank over every sixth
//     prefix (the profile-isolation test checks every tick);
//   - adaptive: a full Adaptive run (decisions, churn damping, live
//     replay) priced by each engine.
func TestBatchedMatchesOracleOnPaperTraces(t *testing.T) {
	oracle := &Evaluator{Workers: 1, DisableBatch: true}
	batched := &Evaluator{Workers: 1}
	for _, regime := range []string{"low", "high", "megaspike", "moderate"} {
		for _, seed := range []uint64{17, 41} {
			set := regimeTrace(regime, seed)
			at := set.Start() + 3*24*trace.Hour
			hist := set.Slice(at-12*trace.Hour, at)
			runHist, run := window(set, 3, 2)
			for _, candName := range []string{"periodic", "default", "two-profile"} {
				t.Run(fmt.Sprintf("%s/seed%d/%s", regime, seed, candName), func(t *testing.T) {
					cands := candidateSet(candName)
					want := oracle.MeasureAll(hist, permutationSpecs(cands), 300, 300)
					got := batched.MeasureAll(hist, permutationSpecs(cands), 300, 300)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("sweep: batched estimates diverge from the oracle\noracle  %v\nbatched %v", want, got)
					}

					streamMatchesOracle(t, hist, cands, 6)

					cfg := testConfig(runHist, run, 300)
					results := make([]*sim.Result, 2)
					for i, disable := range []bool{false, true} {
						a := NewAdaptive()
						a.Candidates = cands
						a.Eval = &Evaluator{Workers: 4, DisableBatch: disable}
						res, err := sim.Run(cfg, a)
						if err != nil {
							t.Fatalf("adaptive disable=%v: %v", disable, err)
						}
						results[i] = res
					}
					if !reflect.DeepEqual(results[0], results[1]) {
						t.Fatalf("adaptive: run diverges between batched and oracle evaluation:\nbatched %+v\noracle  %+v",
							results[0], results[1])
					}
				})
			}
		}
	}
}

// TestAdaptiveBatchedMatchesOracleEndToEnd runs the full Adaptive
// scheme — decisions, churn damping, live replay — with the batched and
// the oracle evaluator over a five-day high-volatility history and
// requires identical results.
func TestAdaptiveBatchedMatchesOracleEndToEnd(t *testing.T) {
	for _, seed := range []uint64{23, 41} {
		hist, run := window(tracegen.HighVolatility(seed), 5, 2)
		cfg := testConfig(hist, run, 300)
		results := make([]*sim.Result, 2)
		for i, disable := range []bool{false, true} {
			a := NewAdaptive()
			a.Eval = &Evaluator{Workers: 4, DisableBatch: disable}
			res, err := sim.Run(cfg, a)
			if err != nil {
				t.Fatalf("seed %d disable=%v: %v", seed, disable, err)
			}
			results[i] = res
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("seed %d: Adaptive diverges between batched and oracle evaluation:\nbatched %+v\noracle  %+v",
				seed, results[0], results[1])
		}
	}
}

// fuzzPerm is the policy-free description of one fuzzed permutation, so
// the oracle and batched evaluations can each get fresh policy
// instances built from identical parameters.
type fuzzPerm struct {
	bid   float64
	zones []int
	kind  int // 0 Periodic, 1 Markov-Daly, 2 Markov-Daly (Young), 3 nil policy

	// Markov-Daly profile: history span (0 selects the default span).
	span int64
}

func (pp fuzzPerm) spec() sim.RunSpec {
	var pol sim.CheckpointPolicy
	switch pp.kind {
	case 0:
		pol = NewPeriodic()
	case 1, 2:
		md := NewMarkovDaly()
		md.HigherOrder = pp.kind == 1
		md.HistorySpan = pp.span
		pol = md
	}
	zones := append([]int(nil), pp.zones...)
	return sim.RunSpec{Bid: pp.bid, Zones: zones, Policy: pol}
}

// FuzzBatchedMeasure drives random traces, bid grids, zone subsets
// (sorted and not), overheads and policy mixes — each Markov-Daly
// permutation drawing its own history span and interval estimate, so
// one sweep mixes profiles — through the batched engine and the machine
// oracle, requiring bit-identical estimates. Prices are drawn on and
// off the nickel grid, some within 1e-4 of a bucket's rounding
// boundary, and bids from, next to and between the window's raw and
// bucketed prices; up to 24 permutations share a few zone lists, so
// replay classes collide and a class key that misses a threshold the
// engine reads shows up as a diverging estimate. It also draws every
// input the oracle rejects, whose zero estimate the batched path must
// reproduce without replaying: empty, duplicate and out-of-range zone
// sets, non-positive bids, nil policies, and windows that are nil,
// empty, misaligned or carry invalid prices. After the first sweep it
// slides the same batched state one to three times — appending a random
// number of samples and forgetting a random front, in place, as an
// Adaptive run's window does — and requires each slid sweep to equal a
// fresh scratch's sweep over the same window bit for bit, replay count
// included. scripts/check.sh runs it alongside the other fuzz targets.
func FuzzBatchedMeasure(f *testing.F) {
	for i := uint64(0); i < 8; i++ {
		f.Add(i, i*2654435761)
	}
	// Two bids that admit the same raw prices but not the same bucketed
	// ones: a class key without the bucketed rank merges them.
	f.Add(uint64(45), uint64(7963307333))
	f.Fuzz(func(t *testing.T, seed, mix uint64) {
		rng := rand.New(rand.NewSource(int64(seed ^ (mix * 0x9e3779b97f4a7c15))))
		nz := 1 + rng.Intn(3)
		n := 1 + rng.Intn(80)
		if rng.Intn(32) == 0 {
			n = 0 // empty window
		}
		epoch := int64(rng.Intn(400)) * 300
		series := make([]*trace.Series, nz)
		// next draws the column's next price; draw appends it.
		next := func(col []float64) float64 {
			switch i := len(col); {
			case i > 0 && rng.Intn(3) == 0:
				return col[i-1] // columns are step functions
			case rng.Intn(3) == 0:
				return 0.05 * float64(1+rng.Intn(20))
			case rng.Intn(2) == 0:
				// Within 1e-4 of a nickel rounding boundary.
				return 0.025 + 0.05*float64(rng.Intn(20)) + (rng.Float64()-0.5)*2e-4
			}
			return 0.01 + rng.Float64()
		}
		draw := func(col []float64) []float64 { return append(col, next(col)) }
		var seen []float64 // every price drawn, for bids to land on
		for z := range series {
			prices := make([]float64, 0, n)
			for len(prices) < n {
				prices = draw(prices)
			}
			seen = append(seen, prices...)
			series[z] = &trace.Series{Zone: fmt.Sprintf("z%d", z), Epoch: epoch, Step: 300, Prices: prices}
		}
		hist := &trace.Set{Series: series}
		switch bad := rng.Intn(48); {
		case bad == 0:
			hist = nil
		case bad == 1 && n > 0:
			series[rng.Intn(nz)].Prices[rng.Intn(n)] = -0.05
		case bad == 2 && n > 0:
			series[rng.Intn(nz)].Prices[rng.Intn(n)] = math.NaN()
		case bad == 3 && nz > 1:
			series[nz-1].Epoch += 300
		case bad == 4 && nz > 1 && n > 1:
			series[nz-1].Prices = series[nz-1].Prices[:n-1]
		}
		tc := int64(1+rng.Intn(4)) * 150
		tr := int64(1+rng.Intn(4)) * 150

		spans := []int64{0, 6 * trace.Hour, 2 * trace.Hour}
		lists := make([][]int, 1+rng.Intn(3))
		for i := range lists {
			order := rng.Perm(nz)
			lists[i] = order[:1+rng.Intn(nz)]
		}
		perms := make([]fuzzPerm, 1+rng.Intn(24))
		for i := range perms {
			zones := append([]int(nil), lists[rng.Intn(len(lists))]...)
			switch rng.Intn(24) {
			case 0:
				zones = zones[:0]
			case 1:
				zones[rng.Intn(len(zones))] = nz + rng.Intn(3)
			case 2:
				zones[rng.Intn(len(zones))] = -1
			case 3, 4:
				if len(zones) > 1 {
					zones[0] = zones[1]
				}
			}
			bid := 0.05 * float64(1+rng.Intn(25))
			if len(seen) > 0 && rng.Intn(4) > 0 {
				// A window price, raw or bucketed, or a neighbour of one.
				bid = seen[rng.Intn(len(seen))]
				if rng.Intn(2) == 0 {
					bid = math.Round(bid/markov.Quantum) * markov.Quantum
				}
				switch rng.Intn(3) {
				case 0:
					bid = math.Nextafter(bid, 0)
				case 1:
					bid = math.Nextafter(bid, 2)
				}
			}
			switch rng.Intn(32) {
			case 0:
				bid = -bid
			case 1:
				bid = 0
			}
			kind := rng.Intn(3)
			if rng.Intn(16) == 0 {
				kind = 3
			}
			perms[i] = fuzzPerm{bid: bid, zones: zones, kind: kind, span: spans[rng.Intn(len(spans))]}
		}

		build := func() []sim.RunSpec {
			specs := make([]sim.RunSpec, len(perms))
			for i, pp := range perms {
				specs[i] = pp.spec()
			}
			return specs
		}
		oracle := &Evaluator{Workers: 1, DisableBatch: true}
		batched := &Evaluator{Workers: 1}
		want := oracle.MeasureAll(hist, build(), tc, tr)
		got := batched.MeasureAll(hist, build(), tc, tr)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("batched diverges from oracle (seed=%d mix=%d):\noracle  %v\nbatched %v", seed, mix, want, got)
		}

		if n == 0 || hist == nil || hist.Validate() != nil {
			return
		}
		// The window then moves in place, as an Adaptive run's does: each
		// zone's prices and chain states shift within their storage, the
		// states numbered by one Buckets over every price the zone held.
		all := make([]trace.Buckets, nz)
		ids := make([][]int32, nz)
		for z, sr := range series {
			for _, p := range sr.Prices {
				all[z].Add(p)
			}
			st, vals := all[z].States()
			ids[z] = slices.Clone(st)
			sr.SetStates(ids[z], vals)
		}
		slid := &batchState{}
		slid.reset(hist, tc, tr)
		slid.sweep(build(), make([]estimate, len(perms)))
		for k := 1 + rng.Intn(3); k > 0; k-- {
			drop := rng.Intn(len(series[0].Prices) + 1)
			add := rng.Intn(24)
			if drop == len(series[0].Prices) {
				add++ // keep the window non-empty
			}
			for z, sr := range series {
				col := sr.Prices[:copy(sr.Prices, sr.Prices[drop:])]
				ids[z] = ids[z][:copy(ids[z], ids[z][drop:])]
				for i := 0; i < add; i++ {
					col = append(col, next(col))
					all[z].Add(col[len(col)-1])
					st, _ := all[z].States()
					ids[z] = append(ids[z], st[len(st)-1])
				}
				_, vals := all[z].States()
				sr.Prices = col
				sr.SetStates(ids[z], vals)
				sr.Epoch += int64(drop) * sr.Step
			}
			slid.advance(hist, drop)
			slid.rearm()
			got := make([]estimate, len(perms))
			replays := slid.sweep(build(), got)
			fresh := &batchState{}
			fresh.reset(hist, tc, tr)
			want := make([]estimate, len(perms))
			if freshReplays := fresh.sweep(build(), want); !reflect.DeepEqual(want, got) || replays != freshReplays {
				t.Fatalf("slide %d (drop %d, add %d) diverges from a fresh scratch (seed=%d mix=%d):\nfresh %v (%d replays)\nslid  %v (%d replays)",
					k, drop, add, seed, mix, want, freshReplays, got, replays)
			}
		}
	})
}

// batchPass runs one full batched sweep on preallocated state, the way
// Evaluator.MeasureAll does minus the pool and the span bookkeeping.
func batchPass(t testing.TB, b *batchState, hist *trace.Set, specs []sim.RunSpec, out []estimate) {
	b.reset(hist, 300, 300)
	b.sweep(specs, out)
	if slices.Contains(b.specPerm, -1) {
		t.Fatal("spec rejected by the batched engine")
	}
}

// TestBatchPassSteadyStateZeroAlloc pins the steady-state allocation
// contract: once the scratch buffers and memo tables have grown to the
// decision point's working set, a full batched sweep allocates nothing.
func TestBatchPassSteadyStateZeroAlloc(t *testing.T) {
	hist := estimationHistory(31)
	specs := permutationSpecs(nil)
	b := &batchState{}
	out := make([]estimate, len(specs))
	// Grow buffers to steady state: the memo columns and each chain
	// memo's buffer of fitted states reach their high-water capacity
	// within a few passes; after that a pass allocates nothing at all.
	for i := 0; i < 20; i++ {
		batchPass(t, b, hist, specs, out)
	}
	if n := testing.AllocsPerRun(10, func() { batchPass(t, b, hist, specs, out) }); n != 0 {
		t.Errorf("steady-state batch pass allocates %v times per run, want 0", n)
	}
}

// BenchmarkBidIndexBuild measures the per-(zone, bid) availability index
// build over a 12-hour window.
func BenchmarkBidIndexBuild(b *testing.B) {
	hist := estimationHistory(31)
	cols := trace.NewColumns(hist)
	var bi trace.BidIndex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bi.Build(cols, i%hist.NumZones(), 0.47)
	}
}

// BenchmarkBatchPass measures one steady-state batched sweep of the
// standard permutation grid over a 12-hour window.
func BenchmarkBatchPass(b *testing.B) {
	hist := estimationHistory(31)
	specs := permutationSpecs(nil)
	st := &batchState{}
	out := make([]estimate, len(specs))
	batchPass(b, st, hist, specs, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batchPass(b, st, hist, specs, out)
	}
}

// BenchmarkMeasureAllBatched and BenchmarkMeasureAllOracle pair the two
// MeasureAll paths over the identical grid, pool and span plumbing
// included.
func BenchmarkMeasureAllBatched(b *testing.B) {
	benchmarkMeasureAll(b, false)
}

// BenchmarkMeasureAllOracle is the oracle side of the pair.
func BenchmarkMeasureAllOracle(b *testing.B) {
	benchmarkMeasureAll(b, true)
}

func benchmarkMeasureAll(b *testing.B, disable bool) {
	hist := estimationHistory(31)
	ev := &Evaluator{DisableBatch: disable}
	specs := permutationSpecs(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.MeasureAll(hist, specs, 300, 300)
	}
}

// TestBatchResetTrimsFreeLists pins reset's free-list bound: after a
// sweep over a long window, re-arming for a short one keeps no interval
// or chain memo sized for the long window.
func TestBatchResetTrimsFreeLists(t *testing.T) {
	set := tracegen.HighVolatility(31)
	long := set.Slice(set.Start(), set.Start()+4*24*trace.Hour)
	short := set.Slice(set.Start(), set.Start()+4*trace.Hour)
	specs := permutationSpecs(nil)
	b := &batchState{}
	out := make([]estimate, len(specs))
	batchPass(t, b, long, specs, out)
	if len(b.chains) == 0 {
		t.Fatal("the long sweep fitted no chain")
	}
	b.reset(short, 300, 300)
	n := b.nsteps
	for _, iv := range b.freeIvals {
		if cap(iv.vals) > 2*n {
			t.Errorf("free interval memo of %d entries kept for a %d-step window", cap(iv.vals), n)
		}
	}
	for _, cm := range b.freeChains {
		if cap(cm.fits) > 2*n {
			t.Errorf("free chain memo of %d steps kept for a %d-step window", cap(cm.fits), n)
		}
	}
	// The short sweep itself still prices exactly what the oracle does.
	want := (&Evaluator{Workers: 1, DisableBatch: true}).MeasureAll(short, permutationSpecs(nil), 300, 300)
	batchPass(t, b, short, specs, out)
	if !reflect.DeepEqual(want, out) {
		t.Fatal("sweep after a trimmed reset diverges from the oracle")
	}
}
