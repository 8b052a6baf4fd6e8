package core

import (
	"math"
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

// TestChainStatesStopGrowing pins the chain memos' state storage in its
// steady state: each memo's flat buffer of fitted states keeps the room
// a pass of decisions needs, so the warmPasses-th repeated pass of the
// same decisions allocates nothing.
func TestChainStatesStopGrowing(t *testing.T) {
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
			if r := cm.wf.Slots(); r > n || len(cm.fits) != n || cap(cm.fits) > 2*n || len(cm.states) > n*r {
				t.Fatalf("decision at %d: chain memo %d counts over %d fitter slots and holds %d fit slots (cap %d) and %d states, window %d",
					now, i, r, len(cm.fits), cap(cm.fits), len(cm.states), n)
			}
			if cm.ustride > 0 && len(cm.usolve.vals) != n*cm.ustride {
				t.Fatalf("decision at %d: chain memo %d uptime column of %d slots, want %d", now, i, len(cm.usolve.vals), n*cm.ustride)
			}
		}
		if len(b.chains) > len(sc.cols) || len(b.freeIvals) > len(b.perms) {
			t.Fatalf("decision at %d: %d chain memos, a free list of %d interval memos beside %d permutations",
				now, len(b.chains), len(b.freeIvals), len(b.perms))
		}
		if len(sc.tables) > maxSlotTables {
			t.Fatalf("decision at %d: %d slot tables", now, len(sc.tables))
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

// TestDecisionWindowNonPrice pins the window's validity check, which
// reads only the samples a decision appends: a NaN that Env.Price
// returns gives every slot a zero estimate at each hourly decision
// whose window holds it, and once it has slid out the slid window
// prices exactly what a fresh scratch does.
func TestDecisionWindowNonPrice(t *testing.T) {
	env := decisionEnv(t)
	const span = 12 * trace.Hour
	at := env.StartTime + 6*trace.Hour
	tr := env.Cfg.Trace.Series[1]
	tr.Prices[tr.Index(at)] = math.NaN()
	g := newRunGrid(NewAdaptive(), env)
	ev := &Evaluator{}
	inc := &sim.RunSpec{Bid: 0.81, Zones: []int{0, 1}, Policy: NewMarkovDaly()}
	sc := &sweepScratch{}
	priced := 0
	for now := env.StartTime; now <= at+span+6*trace.Hour; now += trace.Hour {
		got := decide(env, now, sc, g, ev, inc)
		if now >= at && now < at+span {
			for i, e := range got {
				if e != (estimate{}) {
					t.Fatalf("decision at %d: slot %d estimate %+v over a window holding a NaN", now, i, e)
				}
			}
			continue
		}
		if want := decide(env, now, &sweepScratch{}, g, ev, inc); !reflect.DeepEqual(got, want) {
			t.Fatalf("decision at %d: slid window prices %v, a fresh scratch %v", now, got, want)
		}
		if now > at {
			priced++
		}
	}
	if priced == 0 || sc.b.org == 0 {
		t.Fatalf("%d decisions priced after the NaN left the window, which slid %d samples", priced, sc.b.org)
	}
}

// TestSlotTablesOutliveRuns pins the slot tables a pooled scratch keeps
// across Adaptive runs: a second run over an equal grid finds the table
// of a zone order the first met, building and allocating nothing, and a
// grid with other knobs starts the tables over.
func TestSlotTablesOutliveRuns(t *testing.T) {
	env := decisionEnv(t)
	sc := &sweepScratch{}
	order := []int{2, 0, 1}
	first := sc.slotsFor(newRunGrid(NewAdaptive(), env), order)
	second := newRunGrid(NewAdaptive(), env)
	var again []rankSlot
	if n := testing.AllocsPerRun(5, func() { again = sc.slotsFor(second, order) }); n != 0 {
		t.Fatalf("a second run's slot table allocates %v times, want 0", n)
	}
	if &again[0] != &first[0] || len(sc.tables) != 1 {
		t.Fatalf("a second run over the same grid rebuilt its slot table (%d tables)", len(sc.tables))
	}
	other := newRunGrid(&Adaptive{MaxZones: 2}, env)
	if slots := sc.slotsFor(other, order); &slots[0] == &first[0] || len(sc.tables) != 1 || len(slots) == len(first) {
		t.Fatalf("a grid of other knobs reused %d tables", len(sc.tables))
	}
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
