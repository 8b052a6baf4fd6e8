package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// decisionEnv returns the env of a machine over a volatile three-day
// run with two days of bootstrap history, for tests that move env.Now
// by hand to drive an Adaptive run's decision window.
func decisionEnv(t testing.TB) *sim.Env {
	t.Helper()
	hist, run := window(tracegen.HighVolatility(41), 3, 3)
	m, err := sim.NewMachine(testConfig(hist, run, 300), probeStrategy{func(*sim.Env) {}})
	if err != nil {
		t.Fatal(err)
	}
	return m.Env()
}

// decide runs one Adaptive decision's window step at time now: slide
// the scratch's window of run 1 and price the run grid over it with an
// incumbent.
func decide(env *sim.Env, now int64, sc *sweepScratch, g *runGrid, ev *Evaluator, inc *sim.RunSpec) []estimate {
	env.Now = now
	sc.slide(env, 1, 12*trace.Hour)
	_, ests := sc.estimateSlots(ev, g, inc)
	return ests
}

// warmPasses is how many repeated passes of a run's decisions bring the
// resident window to its allocation-free steady state: every pass after
// them allocates nothing.
const warmPasses = 3

// decisionPass returns one pass of 24 hourly decisions of run 1 from
// the start of decisionEnv's run, on one scratch, with a Markov-Daly
// incumbent.
func decisionPass(t *testing.T) (pass func(), sc *sweepScratch, decisions int) {
	env := decisionEnv(t)
	g := newRunGrid(NewAdaptive(), env)
	ev := &Evaluator{}
	inc := &sim.RunSpec{Bid: 0.81, Zones: []int{0, 1}, Policy: NewMarkovDaly()}
	sc = &sweepScratch{}
	start := env.StartTime
	decisions = 24
	return func() {
		for k := 0; k < decisions; k++ {
			decide(env, start+int64(k)*trace.Hour, sc, g, ev, inc)
		}
	}, sc, decisions
}

// TestRecycledModelsStopGrowing pins the free lists' steady state: a
// take finds a recycled model whose storage holds the fit's states, so
// no model grows once the lists hold what a pass needs at once, and the
// warmPasses-th repeated pass of the same decisions allocates nothing.
func TestRecycledModelsStopGrowing(t *testing.T) {
	pass, _, _ := decisionPass(t)
	for i := 0; i < warmPasses-2; i++ {
		pass()
	}
	// AllocsPerRun runs pass once to warm up, then measures the next.
	if n := testing.AllocsPerRun(1, pass); n != 0 {
		t.Fatalf("pass %d of the same decisions allocates %v times, want 0", warmPasses, n)
	}
}

// TestDecisionWindowZeroAlloc pins the resident window's steady state:
// once a run's decisions have slid its window through a stretch of
// market warmPasses times, a decision — the slide by the hour since the
// last one plus the estimate step over the whole grid and the
// incumbent — allocates nothing.
func TestDecisionWindowZeroAlloc(t *testing.T) {
	pass, sc, decisions := decisionPass(t)
	for i := 0; i < warmPasses; i++ {
		pass()
	}
	if want := (decisions - 1) * int(trace.Hour/sc.step); sc.b.org != want {
		t.Fatalf("the window slid %d samples in a pass, want %d: decisions re-armed instead", sc.b.org, want)
	}
	if n := testing.AllocsPerRun(5, pass); n != 0 {
		t.Errorf("a pass of %d warmed decisions allocates %v times, want 0", decisions, n)
	}
}

// TestDecisionWindowBound pins what an Adaptive run's resident window
// holds, decision after decision over three days: the window's columns,
// each availability index's flips, each chain memo's fitter slots, memo
// columns and the free lists stay within a constant multiple of the
// window's samples, however long the run has lasted; and every slid
// decision prices exactly what a fresh scratch does.
func TestDecisionWindowBound(t *testing.T) {
	env := decisionEnv(t)
	g := newRunGrid(NewAdaptive(), env)
	ev := &Evaluator{}
	inc := &sim.RunSpec{Bid: 1.07, Zones: []int{1}, Policy: NewMarkovDaly()}
	sc := &sweepScratch{}
	end := env.Cfg.Trace.End()
	decisions := 0
	for now := env.StartTime; now < end; now += 5 * env.Step {
		got := decide(env, now, sc, g, ev, inc)
		decisions++
		b := &sc.b
		n := b.nsteps
		if n != int(12*trace.Hour/env.Step) {
			t.Fatalf("decision at %d: window of %d samples", now, n)
		}
		for z, col := range sc.cols {
			if ids := sc.ids[z]; len(col) != n || cap(col) > 2*n || len(ids) != n || cap(ids) > 2*n {
				t.Fatalf("decision at %d: zone %d column holds %d samples (cap %d) and %d states (cap %d), window %d",
					now, z, len(col), cap(col), len(ids), cap(ids), n)
			}
		}
		for _, z := range b.zoneBuf {
			if z.idx.Len() != n {
				t.Fatalf("decision at %d: index (%d, %g) covers %d steps, window %d", now, z.zone, z.idx.Bid, z.idx.Len(), n)
			}
		}
		for i, cm := range b.chains {
			if r := cm.wf.Slots(); r > n || len(cm.models) != n || cap(cm.models) > 2*n {
				t.Fatalf("decision at %d: chain memo %d counts over %d fitter slots and holds %d model slots (cap %d), window %d",
					now, i, r, len(cm.models), cap(cm.models), n)
			}
			if cm.ustride > 0 && len(cm.usolve.vals) != n*cm.ustride {
				t.Fatalf("decision at %d: chain memo %d uptime column of %d slots, want %d", now, i, len(cm.usolve.vals), n*cm.ustride)
			}
		}
		if len(b.chains) > len(sc.cols) || freeModels(b) > n*(len(b.chains)+len(b.freeChains)) || len(b.freeIvals) > len(b.perms) {
			t.Fatalf("decision at %d: %d chain memos, free lists of %d models and %d interval memos beside %d permutations",
				now, len(b.chains), freeModels(b), len(b.freeIvals), len(b.perms))
		}
		if len(g.tables) > maxSlotTables {
			t.Fatalf("decision at %d: %d slot tables", now, len(g.tables))
		}
		if decisions%9 == 0 {
			fresh := &sweepScratch{}
			if want := decide(env, now, fresh, g, ev, inc); !reflect.DeepEqual(got, want) {
				t.Fatalf("decision at %d: slid window prices %v, a fresh scratch %v", now, got, want)
			}
		}
	}
	if sc.b.org == 0 {
		t.Fatal("the window never slid")
	}
	t.Logf("%d decisions; the window slid %d samples", decisions, sc.b.org)
}

// TestAdaptiveHoldsNoWindow pins where an Adaptive run's window lives:
// in the pooled sweep scratch between decisions, never in the strategy,
// so nothing outlives a dropped strategy but its grid. No field of
// Adaptive or runGrid is a scratch, a batched state, a set or a price
// column.
func TestAdaptiveHoldsNoWindow(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(&sweepScratch{}):   true,
		reflect.TypeOf(&batchState{}):     true,
		reflect.TypeOf(&trace.Set{}):      true,
		reflect.TypeOf(&trace.Columns{}):  true,
		reflect.TypeOf([][]float64{}):     true,
		reflect.TypeOf([]*trace.Series{}): true,
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(Adaptive{}), reflect.TypeOf(runGrid{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); banned[f.Type] {
				t.Errorf("%s.%s is a %s: a run's window belongs to the pooled scratch", typ.Name(), f.Name, f.Type)
			}
		}
	}
}
