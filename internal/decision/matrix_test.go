package decision

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// cell is one (trace-regime, seed, candidate-set) coordinate of the
// differential matrix — the same regimes the chaos soak exercises.
type cell struct {
	regime string
	seed   uint64
	cands  string
}

// regimeSet cuts the standard chaos window (start five days in, two
// days of history) from the named regime.
func regimeSet(regime string, seed uint64) (hist, run *trace.Set) {
	var set *trace.Set
	switch regime {
	case "low":
		set = tracegen.LowVolatility(seed)
	case "high":
		set = tracegen.HighVolatility(seed)
	case "spike":
		set = tracegen.LowVolatilityWithMegaSpike(seed)
	default:
		panic("unknown regime " + regime)
	}
	start := set.Start() + 5*24*trace.Hour
	return set.Slice(start-2*24*trace.Hour, start), set.Slice(start, start+2*24*trace.Hour)
}

// candidateSet resolves a candidate-set name to policy descriptors.
func candidateSet(name string) []core.PolicySpec {
	all := core.DefaultAdaptiveCandidates()
	switch name {
	case "periodic":
		return all[:1]
	case "markov":
		return all[1:2]
	case "both":
		return all
	case "two-profile":
		// Two Markov-Daly profiles, differing only in the history span.
		return []core.PolicySpec{all[1], {Family: core.FamilyMarkovDaly, HistorySpan: 6 * trace.Hour}}
	case "renamed-profile":
		// One non-default Markov-Daly profile, whose descriptor is not
		// its policy's Name(): records must carry the span, or a replay
		// resolves them to the default-span profile.
		return []core.PolicySpec{{Family: core.FamilyMarkovDaly, HistorySpan: 6 * trace.Hour}}
	default:
		panic("unknown candidate set " + name)
	}
}

// cellReplayer builds the replayer for one matrix cell: a deliberately
// small grid (3 bids, N<=2, 6-hour window) so the full matrix stays
// fast under -race while still producing multi-decision runs with real
// rivals.
func cellReplayer(c cell) *Replayer {
	hist, run := regimeSet(c.regime, c.seed)
	cands := candidateSet(c.cands)
	return &Replayer{
		Cfg: sim.Config{
			Trace:          run,
			History:        hist,
			Work:           4 * trace.Hour,
			Deadline:       7 * trace.Hour,
			CheckpointCost: 300,
			RestartCost:    300,
			Delay:          market.FixedDelay(300),
			Seed:           c.seed,
		},
		New: func() *core.Adaptive {
			return &core.Adaptive{
				Bids:             []float64{0.47, 0.81, 1.67},
				MaxZones:         2,
				EstimationWindow: 6 * trace.Hour,
				Candidates:       cands,
			}
		},
		TopK: 2,
	}
}

// matrixCells enumerates the differential matrix, plus one cell whose
// candidates are two Markov-Daly profiles and one whose only candidate
// is a non-default profile (renamedCell).
func matrixCells() []cell {
	var out []cell
	for _, regime := range []string{"low", "high", "spike"} {
		for _, seed := range []uint64{13, 29} {
			for _, cands := range []string{"periodic", "both"} {
				out = append(out, cell{regime: regime, seed: seed, cands: cands})
			}
		}
	}
	return append(out, cell{regime: "high", seed: 13, cands: "two-profile"}, renamedCell)
}

// renamedCell runs the renamed profile where a replay that resolves a
// record by the policy's Name() installs the wrong profile and diverges.
var renamedCell = cell{regime: "high", seed: 1, cands: "renamed-profile"}

// TestCounterfactualMatchesOracleMatrix is the tentpole differential
// suite: for every (policy-set × seed × trace-regime) cell, forcing a
// rival at the first, middle and last decision must produce a run whose
// digest is bit-identical to a from-scratch sim.Machine oracle that
// replays the counterfactual's own decision log with every choice
// pinned and nothing evaluated. The oracle shares Adaptive's code, so
// the suite also pins that it prices nothing: it records no
// adaptive.decision span. Run it under -race.
func TestCounterfactualMatchesOracleMatrix(t *testing.T) {
	for _, c := range matrixCells() {
		c := c
		t.Run(c.regime+"/"+c.cands, func(t *testing.T) {
			t.Parallel()
			r := cellReplayer(c)
			// Every run traces its decisions into tr, which each
			// oracle replay starts afresh.
			var tr *obs.Tracer
			newAdaptive := r.New
			r.New = func() *core.Adaptive {
				a := newAdaptive()
				a.Eval = &core.Evaluator{Trace: tr}
				return a
			}
			decisionSpans := func() int {
				n := 0
				for _, sp := range tr.Spans() {
					if sp.Name == "adaptive.decision" {
						n++
					}
				}
				return n
			}
			oracleOf := func(log []Record) (Outcome, error) {
				tr = obs.NewTracer(1 << 12)
				out, err := r.Oracle(log)
				if n := decisionSpans(); n != 0 {
					t.Errorf("oracle priced %d decisions, want none", n)
				}
				return out, err
			}
			tr = obs.NewTracer(1 << 12)
			baseline, log, err := r.Baseline()
			if err != nil {
				t.Fatal(err)
			}
			if len(log) == 0 {
				t.Fatal("empty decision log")
			}
			if n := decisionSpans(); n != len(log) {
				t.Fatalf("baseline traced %d decisions, logged %d", n, len(log))
			}
			// Every record names its candidate by descriptor, so the
			// pinned replays below rebuild each profile from the
			// record alone.
			for _, rec := range log {
				if !slices.ContainsFunc(candidateSet(c.cands), func(p core.PolicySpec) bool { return p.String() == rec.Chosen.Policy }) {
					t.Fatalf("decision %d names %q, no candidate's descriptor", rec.Seq, rec.Chosen.Policy)
				}
			}
			// The recorded log, replayed fully pinned, must reproduce
			// the baseline run exactly.
			oracle, err := oracleOf(log)
			if err != nil {
				t.Fatal(err)
			}
			if oracle.Digest != baseline.Digest {
				t.Fatalf("pinned replay of the baseline log diverged:\nbaseline %s %+v\noracle   %s %+v",
					baseline.Digest, baseline, oracle.Digest, oracle)
			}
			seqs := []int{0}
			if n := len(log); n > 1 {
				seqs = append(seqs, n/2, n-1)
			}
			for _, seq := range seqs {
				for _, task := range r.rivalsOf(&log[seq]) {
					cf, cfLog, err := r.Counterfactual(log, task.seq, task.rival)
					if err != nil {
						t.Fatalf("seq %d rank %d: %v", task.seq, task.rank, err)
					}
					cfOracle, err := oracleOf(cfLog)
					if err != nil {
						t.Fatalf("seq %d rank %d oracle: %v", task.seq, task.rank, err)
					}
					if cf.Digest != cfOracle.Digest {
						t.Fatalf("counterfactual seq %d rank %d diverged from oracle:\nreplay %s %+v\noracle %s %+v",
							task.seq, task.rank, cf.Digest, cf, cfOracle.Digest, cfOracle)
					}
				}
			}
		})
	}
}

// TestForcingChosenYieldsZeroRegret is the zero-regret property: at
// every decision point of a recorded run, forcing the originally-chosen
// permutation must reproduce the baseline run bit-identically — the
// counterfactual machinery may not perturb a replay whose forced choice
// changes nothing.
func TestForcingChosenYieldsZeroRegret(t *testing.T) {
	for _, c := range []cell{{regime: "high", seed: 13, cands: "both"}, renamedCell} {
		t.Run(c.regime+"/"+c.cands, func(t *testing.T) {
			r := cellReplayer(c)
			baseline, log, err := r.Baseline()
			if err != nil {
				t.Fatal(err)
			}
			for seq := range log {
				cf, _, err := r.Counterfactual(log, seq, log[seq].Chosen)
				if err != nil {
					t.Fatalf("seq %d: %v", seq, err)
				}
				if cf.Digest != baseline.Digest {
					t.Fatalf("forcing the chosen permutation at seq %d changed the run:\nbaseline %s %+v\nreplay   %s %+v",
						seq, baseline.Digest, baseline, cf.Digest, cf)
				}
				if cf.Cost != baseline.Cost {
					t.Fatalf("seq %d: nonzero regret %g forcing the chosen permutation", seq, cf.Cost-baseline.Cost)
				}
			}
		})
	}
}

// TestReplayerRefusesUnresolvableKinds pins the replayer's refusals:
// candidates with two equal descriptors (no record could say which
// won) fail Baseline, Oracle and Counterfactual, and a log or rival
// naming a kind no candidate has fails instead of silently replaying
// Periodic. Periodic itself, the empty grid's fallback, stays
// resolvable whatever the candidates.
func TestReplayerRefusesUnresolvableKinds(t *testing.T) {
	r := cellReplayer(cell{regime: "high", seed: 13, cands: "markov"})
	_, log, err := r.Baseline()
	if err != nil {
		t.Fatal(err)
	}

	dup := *r
	dup.New = func() *core.Adaptive {
		a := r.New()
		md := a.Candidates[0]
		a.Candidates = []core.PolicySpec{md, md}
		return a
	}
	const dupErr = `two candidates of kind "markov-daly"`
	if _, _, err := dup.Baseline(); err == nil || !strings.Contains(err.Error(), dupErr) {
		t.Errorf("Baseline: err %v, want %q", err, dupErr)
	}
	if _, err := dup.Oracle(log); err == nil || !strings.Contains(err.Error(), dupErr) {
		t.Errorf("Oracle: err %v, want %q", err, dupErr)
	}
	if _, _, err := dup.Counterfactual(log, 0, log[0].Ranked[0]); err == nil || !strings.Contains(err.Error(), dupErr) {
		t.Errorf("Counterfactual: err %v, want %q", err, dupErr)
	}

	foreign := append([]Record(nil), log...)
	foreign[0].Chosen.Policy = "edge"
	const kindErr = `policy kind "edge"`
	if _, err := r.Oracle(foreign); err == nil || !strings.Contains(err.Error(), kindErr) {
		t.Errorf("Oracle of an edge choice: err %v, want %q", err, kindErr)
	}
	rival := log[0].Ranked[0]
	rival.Policy = "edge"
	if _, _, err := r.Counterfactual(log, 0, rival); err == nil || !strings.Contains(err.Error(), kindErr) {
		t.Errorf("Counterfactual of an edge rival: err %v, want %q", err, kindErr)
	}

	fallback := append([]Record(nil), log...)
	fallback[0].Chosen.Policy = "periodic"
	if _, err := r.Oracle(fallback); err != nil {
		t.Errorf("Oracle of the periodic fallback: %v", err)
	}
}

// TestBaselineDeterministic replays the same cell twice and requires
// byte-identical decision logs and outcomes, including the top-k rival
// ordering the replay sweep depends on.
func TestBaselineDeterministic(t *testing.T) {
	r := cellReplayer(cell{regime: "spike", seed: 29, cands: "both"})
	o1, l1, err := r.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	o2, l2, err := r.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if o1 != o2 {
		t.Fatalf("outcomes differ:\n%+v\n%+v", o1, o2)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Fatalf("decision logs differ across identical runs:\n%+v\n%+v", l1, l2)
	}
	for i := range l1 {
		r1, r2 := r.rivalsOf(&l1[i]), r.rivalsOf(&l2[i])
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("top-k rivals differ at seq %d: %+v vs %+v", i, r1, r2)
		}
	}
}

// TestNaiveCounterfactualIdentical checks the naive (no pinned prefix,
// fresh machine) counterfactual path produces the same digest as the
// scripted fast path — the precondition for the benchmark comparing
// their speed.
func TestNaiveCounterfactualIdentical(t *testing.T) {
	r := cellReplayer(cell{regime: "high", seed: 29, cands: "both"})
	_, log, err := r.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	seq := len(log) / 2
	tasks := r.rivalsOf(&log[seq])
	if len(tasks) == 0 {
		t.Skip("no rivals at midpoint decision")
	}
	fast, _, err := r.Counterfactual(log, seq, tasks[0].rival)
	if err != nil {
		t.Fatal(err)
	}
	naive := *r
	naive.Naive = true
	slow, _, err := naive.Counterfactual(log, seq, tasks[0].rival)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Digest != slow.Digest {
		t.Fatalf("naive and scripted counterfactuals diverge:\nfast  %s %+v\nnaive %s %+v",
			fast.Digest, fast, slow.Digest, slow)
	}
}

// TestReplayAggregatesRegret end-to-ends the sweep on one cell: the
// report must cover every decision, count its counterfactuals, and
// aggregate per-decision regret consistently with its own rivals.
func TestReplayAggregatesRegret(t *testing.T) {
	r := cellReplayer(cell{regime: "low", seed: 13, cands: "both"})
	baseline, log, err := r.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Replay(baseline, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Decisions) != len(log) {
		t.Fatalf("report covers %d decisions, want %d", len(rep.Decisions), len(log))
	}
	total, max, n := 0.0, 0.0, 0
	for _, d := range rep.Decisions {
		n += len(d.Rivals)
		want := 0.0
		for _, cf := range d.Rivals {
			if saved := -cf.CostDelta; saved > want {
				want = saved
			}
		}
		if d.Regret != want {
			t.Fatalf("seq %d regret %g inconsistent with rivals (want %g)", d.Seq, d.Regret, want)
		}
		total += d.Regret
		if d.Regret > max {
			max = d.Regret
		}
	}
	if n != rep.Counterfactuals {
		t.Fatalf("counterfactual count %d, want %d", rep.Counterfactuals, n)
	}
	if rep.TotalRegret != total || rep.MaxRegret != max {
		t.Fatalf("aggregates total=%g max=%g, want total=%g max=%g", rep.TotalRegret, rep.MaxRegret, total, max)
	}
}

// TestReusedAdaptiveMatchesFresh runs one Adaptive instance twice and
// requires its second run to match a fresh instance's run: the same
// outcome digest and the same decision records. Begin must forget the
// previous run's incumbent, or the second run's first decisions price
// and can keep a spec that run never chose. It covers the both-policy
// cells of every regime over seeds 1–10, where a stale incumbent
// changes the run.
func TestReusedAdaptiveMatchesFresh(t *testing.T) {
	for _, regime := range []string{"low", "high", "spike"} {
		for seed := uint64(1); seed <= 10; seed++ {
			r := cellReplayer(cell{regime: regime, seed: seed, cands: "both"})
			want, wantLog, err := r.Baseline()
			if err != nil {
				t.Fatal(err)
			}
			a := r.newAdaptive()
			if _, err := sim.Run(r.Cfg, a); err != nil {
				t.Fatal(err)
			}
			col := &Collector{}
			a.Sink = col
			res, err := sim.Run(r.Cfg, a)
			if err != nil {
				t.Fatal(err)
			}
			if got := Summarize(res); got.Digest != want.Digest {
				t.Errorf("%s/%d: reused instance's digest %s, fresh instance's %s", regime, seed, got.Digest, want.Digest)
			}
			if got := col.Records(); !reflect.DeepEqual(got, wantLog) {
				t.Errorf("%s/%d: reused instance's decision records differ from a fresh instance's", regime, seed)
			}
		}
	}
}
