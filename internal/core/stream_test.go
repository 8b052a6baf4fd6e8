package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// prefixSet returns the first n samples of the set as a standalone
// aligned window — the from-scratch reference for what a streaming
// evaluator has seen after n ticks.
func prefixSet(set *trace.Set, n int) *trace.Set {
	series := make([]*trace.Series, set.NumZones())
	for z := range series {
		s := set.Series[z]
		series[z] = &trace.Series{Zone: s.Zone, Epoch: set.Start(), Step: set.Step(), Prices: s.Prices[:n]}
	}
	return &trace.Set{Series: series}
}

// streamConfigFor builds the streaming shape of the test's fixed
// planning question over a regime window.
func streamConfigFor(set *trace.Set) StreamConfig {
	return StreamConfig{
		Zones:          set.Zones(),
		Start:          set.Start(),
		Step:           set.Step(),
		Work:           6 * trace.Hour,
		Deadline:       18 * trace.Hour,
		CheckpointCost: 300,
		RestartCost:    300,
	}
}

// streamMatchesOracle feeds hist to a fresh StreamEvaluator over the
// candidates tick by tick and requires, after every every-th tick and
// the last, a table bit-identical to oracle Rank over the same prefix —
// same floats, same order.
func streamMatchesOracle(t *testing.T, hist *trace.Set, cands []PolicySpec, every int) {
	t.Helper()
	oracle := &Evaluator{Workers: 1, DisableBatch: true}
	cfg := streamConfigFor(hist)
	cfg.CrossCheckEvery = -1 // the oracle comparison IS the cross-check
	cfg.Candidates = cands
	se, err := NewStreamEvaluator(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := hist.Series[0].Len()
	lastGen := uint64(0)
	for i := 0; i < n; i++ {
		upd, err := se.Advance(hist.PricesAt(hist.Start() + int64(i)*hist.Step()))
		if err != nil {
			t.Fatalf("stream tick %d: %v", i, err)
		}
		if upd.Generation < lastGen || (upd.Changed && upd.Generation != lastGen+1) {
			t.Fatalf("stream tick %d: generation %d after %d (changed=%v)", i, upd.Generation, lastGen, upd.Changed)
		}
		lastGen = upd.Generation
		if i%every != 0 && i != n-1 {
			continue
		}
		want, err := oracle.Rank(se.s.request(prefixSet(hist, i+1)))
		if err != nil {
			t.Fatalf("stream tick %d: rank: %v", i, err)
		}
		if !plansEqual(upd.Plans, want) {
			t.Fatalf("stream tick %d: incremental table diverges from oracle Rank\nstream %v\noracle %v",
				i, upd.Plans[:3], want[:3])
		}
	}
	st := se.Stats()
	if st.Rebuilds != 1 {
		t.Errorf("stream: %d rebuilds, want exactly the initial one", st.Rebuilds)
	}
	if st.Ticks != uint64(n) || se.Steps() != n {
		t.Errorf("stream: ticks %d steps %d, want %d", st.Ticks, se.Steps(), n)
	}
}

// TestStreamMatchesRankOnPaperTraces feeds paper-regime windows tick by
// tick with the default candidates and requires, after every tick, an
// incrementally maintained table bit-identical to batched
// Evaluator.Rank run from scratch over the same prefix — same floats,
// same order, not just close ones.
func TestStreamMatchesRankOnPaperTraces(t *testing.T) {
	ref := &Evaluator{Workers: 1}
	for _, name := range []string{"low/day1", "high/day3", "megaspike/day5", "moderate/day1"} {
		set := paperRegimes()[name]
		if set == nil {
			t.Fatalf("missing regime %s", name)
		}
		cfg := streamConfigFor(set)
		cfg.CrossCheckEvery = -1 // this test IS the cross-check
		se, err := NewStreamEvaluator(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := set.Series[0].Len()
		lastGen := uint64(0)
		for i := 0; i < n; i++ {
			upd, err := se.Advance(set.PricesAt(set.Start() + int64(i)*set.Step()))
			if err != nil {
				t.Fatalf("%s tick %d: %v", name, i, err)
			}
			if upd.Generation < lastGen || (upd.Changed && upd.Generation != lastGen+1) {
				t.Fatalf("%s tick %d: generation %d after %d (changed=%v)", name, i, upd.Generation, lastGen, upd.Changed)
			}
			lastGen = upd.Generation
			want, err := ref.Rank(se.s.request(prefixSet(set, i+1)))
			if err != nil {
				t.Fatalf("%s tick %d: rank: %v", name, i, err)
			}
			if !plansEqual(upd.Plans, want) {
				t.Fatalf("%s tick %d: incremental table diverges from from-scratch Rank\nstream %v\nrank   %v",
					name, i, upd.Plans[:3], want[:3])
			}
		}
		st := se.Stats()
		if st.Rebuilds != 1 {
			t.Errorf("%s: %d rebuilds, want exactly the initial one", name, st.Rebuilds)
		}
		if st.Ticks != uint64(n) || se.Steps() != n {
			t.Errorf("%s: ticks %d steps %d, want %d", name, st.Ticks, se.Steps(), n)
		}
	}
}

// TestStreamCrossCheckClean pins the runtime cross-check itself: at a
// dense cadence over a volatile regime it must never observe a
// divergence between the incremental table and the from-scratch one.
func TestStreamCrossCheckClean(t *testing.T) {
	set := paperRegimes()["high/day1"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = 7
	se, err := NewStreamEvaluator(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := set.Series[0].Len()
	for i := 0; i < n; i++ {
		if _, err := se.Advance(set.PricesAt(set.Start() + int64(i)*set.Step())); err != nil {
			t.Fatal(err)
		}
	}
	st := se.Stats()
	if st.CrossChecks == 0 {
		t.Fatal("cross-check never ran")
	}
	if st.CrossCheckMismatches != 0 {
		t.Fatalf("%d cross-check mismatches over %d checks", st.CrossCheckMismatches, st.CrossChecks)
	}
}

// TestStreamCompaction pins the retention bound: past MaxSteps the
// window compacts to its trailing half, the resident state rebuilds,
// and the table keeps matching Rank over the compacted window.
func TestStreamCompaction(t *testing.T) {
	set := paperRegimes()["moderate/day3"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = -1
	cfg.MaxSteps = 48
	se, err := NewStreamEvaluator(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := &Evaluator{Workers: 1}
	// Shadow tape mirroring the evaluator's compaction rule, as the
	// from-scratch reference window.
	shadow, err := trace.NewTape(cfg.Zones, cfg.Start, cfg.Step)
	if err != nil {
		t.Fatal(err)
	}
	n := set.Series[0].Len()
	if n > 120 {
		n = 120
	}
	for i := 0; i < n; i++ {
		row := set.PricesAt(set.Start() + int64(i)*set.Step())
		upd, err := se.Advance(row)
		if err != nil {
			t.Fatal(err)
		}
		if err := shadow.Append(row); err != nil {
			t.Fatal(err)
		}
		shadow.Trim(cfg.MaxSteps / 2)
		if se.Steps() != shadow.Len() {
			t.Fatalf("tick %d: window %d, want %d", i, se.Steps(), shadow.Len())
		}
		req := se.s.request(shadow.Set())
		want, err := ref.Rank(req)
		if err != nil {
			t.Fatal(err)
		}
		if !plansEqual(upd.Plans, want) {
			t.Fatalf("tick %d: table diverges from Rank over the compacted window", i)
		}
	}
	st := se.Stats()
	if st.Compactions == 0 {
		t.Fatal("no compaction over a 120-tick feed with MaxSteps=48")
	}
	if st.Rebuilds != st.Compactions+1 {
		t.Errorf("rebuilds %d, want one per compaction plus the initial (%d)", st.Rebuilds, st.Compactions+1)
	}
}

// TestMarkovDalyProfilesIndependent pins profile isolation: a
// Markov-Daly candidate's plans must not depend on which other
// Markov-Daly profiles share the ranking. For two-profile lists that
// vary the interval estimate or the history span, oracle Rank equals batched
// Rank, each profile's plans equal those it gets ranked alone, and a
// StreamEvaluator fed the window tick by tick stays incremental and
// equal to oracle Rank after every tick.
func TestMarkovDalyProfilesIndependent(t *testing.T) {
	hist := estimationHistory(31)
	oracle := &Evaluator{Workers: 1, DisableBatch: true}
	batched := &Evaluator{Workers: 1}
	for name, cands := range map[string][]PolicySpec{"young": youngProfiles(), "span": spanProfiles()} {
		t.Run(name, func(t *testing.T) {
			req := PlanRequest{
				History: hist, Work: 6 * trace.Hour, Deadline: 18 * trace.Hour,
				CheckpointCost: 300, RestartCost: 300, Candidates: cands,
			}
			want, err := oracle.Rank(req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := batched.Rank(req)
			if err != nil {
				t.Fatal(err)
			}
			if !plansEqual(want, got) {
				t.Fatal("batched Rank diverges from oracle Rank")
			}
			for _, fac := range cands {
				solo := req
				solo.Candidates = []PolicySpec{fac}
				alone, err := oracle.Rank(solo)
				if err != nil {
					t.Fatal(err)
				}
				var mixed []Plan
				for _, p := range want {
					if p.Policy == fac.String() {
						mixed = append(mixed, p)
					}
				}
				if !plansEqual(mixed, alone) {
					t.Fatalf("%s: plans ranked beside another profile differ from plans ranked alone\nmixed %v\nalone %v",
						fac, mixed[:3], alone[:3])
				}
			}
			streamMatchesOracle(t, hist, cands, 1)
		})
	}
}

// TestUnsupportedCandidatesRejected pins the validation that keeps
// every candidate on the batched engine and every ranked plan's kind
// unambiguous: Rank and NewStreamEvaluator refuse a policy family
// beyond Periodic and Markov-Daly and two descriptors that print the
// same, the stream also refuses what its permutation keys cannot hold,
// and an Adaptive configured with a foreign family panics at its first
// decision.
func TestUnsupportedCandidatesRejected(t *testing.T) {
	set := paperRegimes()["low/day1"]
	withEdge := append(DefaultAdaptiveCandidates(), PolicySpec{Family: FamilyEdge})
	// Another family's parameter leaves the default profile's
	// descriptor as it is.
	dupKind := twoProfiles(PolicySpec{Family: FamilyMarkovDaly, L: 2.4})
	zones := func(n int) []string {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("z%d", i)
		}
		return names
	}

	req := PlanRequest{History: set, Work: 6 * trace.Hour, Deadline: 18 * trace.Hour,
		CheckpointCost: 300, RestartCost: 300, Candidates: withEdge}
	if _, err := NewEvaluator().Rank(req); err == nil || !strings.Contains(err.Error(), `candidate "edge"`) {
		t.Errorf("Rank with an Edge candidate: err %v, want one naming the edge candidate", err)
	}
	req.Candidates = dupKind
	if _, err := NewEvaluator().Rank(req); err == nil || !strings.Contains(err.Error(), `kind "markov-daly"`) {
		t.Errorf("Rank with two markov-daly candidates: err %v, want one naming the kind", err)
	}

	for _, tc := range []struct {
		name string
		edit func(*StreamConfig)
		want string // error substring; "" means accepted
	}{
		{"edge candidate", func(c *StreamConfig) { c.Candidates = withEdge }, `candidate "edge"`},
		{"duplicate kind", func(c *StreamConfig) { c.Candidates = dupKind }, `kind "markov-daly"`},
		{"zero bid", func(c *StreamConfig) { c.Bids = []float64{0.47, 0} }, "bid 0"},
		{"NaN bid", func(c *StreamConfig) { c.Bids = []float64{math.NaN()} }, "bid NaN"},
		{"256 zones", func(c *StreamConfig) { c.Zones = zones(256) }, "256 stream zones"},
		{"255 zones", func(c *StreamConfig) { c.Zones = zones(255) }, ""},
		{"MaxZones 9", func(c *StreamConfig) { c.Zones, c.MaxZones = zones(9), 9 }, "MaxZones 9"},
		{"MaxZones 9 over 8 zones", func(c *StreamConfig) { c.Zones, c.MaxZones = zones(8), 9 }, ""},
	} {
		cfg := streamConfigFor(set)
		tc.edit(&cfg)
		_, err := NewStreamEvaluator(nil, cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// An Adaptive run refuses the same lists before its first step.
	hist, run := window(tracegen.LowVolatility(31), 3, 1)
	for _, tc := range []struct {
		cands []PolicySpec
		want  string
	}{{withEdge, `candidate "edge"`}, {dupKind, `kind "markov-daly"`}} {
		a := NewAdaptive()
		a.Candidates = tc.cands
		if res, err := sim.Run(testConfig(hist, run, 300), a); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Adaptive with candidates %v: result %v, err %v, want one containing %q", tc.cands, res, err, tc.want)
		}
		if a.decSeq != 0 {
			t.Errorf("Adaptive with candidates %v decided %d times before refusing", tc.cands, a.decSeq)
		}
	}
}
