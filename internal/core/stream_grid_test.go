package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// gridShape is one request shape scored on a shared grid in the tests
// below: the Inequality (1) inputs a StreamScorer adds.
type gridShape struct {
	work, deadline int64
	odRate         float64
}

// gridShapes are three shapes that differ only in what the scorer
// owns, so they share one grid.
var gridShapes = []gridShape{
	{6 * trace.Hour, 18 * trace.Hour, 0},
	{2 * trace.Hour, 3 * trace.Hour, 0},
	{12 * trace.Hour, 13 * trace.Hour, 0.2},
}

// standaloneFor is the StreamEvaluator of one shape over cfg's grid.
func standaloneFor(t *testing.T, cfg StreamConfig, sh gridShape) *StreamEvaluator {
	t.Helper()
	cfg.Work, cfg.Deadline, cfg.OnDemandRate = sh.work, sh.deadline, sh.odRate
	se, err := NewStreamEvaluator(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

// TestStreamGridSharedScorers pins the grid/scorer split: shapes that
// share one grid publish, tick for tick, exactly what a standalone
// StreamEvaluator of each shape publishes (generation, tick, diff and
// table, bit for bit), and every table equals Rank over the grid's
// window — across the paper regimes, through compactions, with the
// cross-check running at a dense cadence and never disagreeing.
func TestStreamGridSharedScorers(t *testing.T) {
	ref := &Evaluator{Workers: 1}
	for _, name := range []string{"low/day1", "high/day3", "megaspike/day5", "moderate/day3"} {
		set := paperRegimes()[name]
		cfg := streamConfigFor(set)
		cfg.CrossCheckEvery = 5
		cfg.MaxSteps = 48
		g, err := NewStreamGrid(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		scorers := make([]*StreamScorer, len(gridShapes))
		alone := make([]*StreamEvaluator, len(gridShapes))
		for i, sh := range gridShapes {
			if scorers[i], err = g.Attach(sh.work, sh.deadline, sh.odRate); err != nil {
				t.Fatal(err)
			}
			alone[i] = standaloneFor(t, cfg, sh)
		}
		// The from-scratch reference window, compacted as the grid is.
		shadow, err := trace.NewTape(cfg.Zones, cfg.Start, cfg.Step)
		if err != nil {
			t.Fatal(err)
		}
		n := min(set.Series[0].Len(), 120)
		for i := 0; i < n; i++ {
			row := set.PricesAt(set.Start() + int64(i)*set.Step())
			if err := g.Advance(row); err != nil {
				t.Fatal(err)
			}
			if err := shadow.Append(row); err != nil {
				t.Fatal(err)
			}
			if shadow.Len() > cfg.MaxSteps {
				shadow = shadow.Tail(cfg.MaxSteps / 2)
			}
			for k, s := range scorers {
				got := s.Update()
				want, err := alone[k].Advance(row)
				if err != nil {
					t.Fatal(err)
				}
				if got.Generation != want.Generation || got.Tick != want.Tick || got.Steps != want.Steps ||
					got.At != want.At || got.Changed != want.Changed || got.BestChanged != want.BestChanged ||
					got.ChangedRanks != want.ChangedRanks || !plansEqual(got.Plans, want.Plans) {
					t.Fatalf("%s tick %d shape %d: shared scorer (gen %d changed %v) diverges from standalone (gen %d changed %v)",
						name, i, k, got.Generation, got.Changed, want.Generation, want.Changed)
				}
				if i%8 != 0 && i != n-1 {
					continue
				}
				rank, err := ref.Rank(s.request(shadow.Set()))
				if err != nil {
					t.Fatal(err)
				}
				if !plansEqual(got.Plans, rank) {
					t.Fatalf("%s tick %d shape %d: shared scorer's table diverges from Rank over the grid window", name, i, k)
				}
			}
		}
		st := g.Stats()
		if st.Compactions == 0 {
			t.Fatalf("%s: no compaction over %d ticks with MaxSteps=%d", name, n, cfg.MaxSteps)
		}
		if st.CrossChecks == 0 || st.CrossCheckMismatches != 0 {
			t.Fatalf("%s: %d cross-check mismatches over %d checks", name, st.CrossCheckMismatches, st.CrossChecks)
		}
		// One grid does the replay work of all three shapes: its
		// structural counters are a standalone evaluator's.
		if solo := alone[0].Stats(); st != solo {
			t.Fatalf("%s: shared grid stats %+v, standalone %+v", name, st, solo)
		}
	}
}

// TestStreamGridLateAttach pins the late-join rule: a scorer attached
// to a grid that already holds a window scores that window at once —
// generation 1, Changed, the grid's tick — and its table equals Rank
// over the window; later ticks diff against it as usual. A detached
// scorer is no longer scored.
func TestStreamGridLateAttach(t *testing.T) {
	set := paperRegimes()["high/day1"]
	cfg := streamConfigFor(set)
	g, err := NewStreamGrid(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	early, err := g.Attach(cfg.Work, cfg.Deadline, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int) []float64 { return set.PricesAt(set.Start() + int64(i)*set.Step()) }
	const joinAt = 40
	for i := 0; i < joinAt; i++ {
		if err := g.Advance(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	sh := gridShapes[1]
	late, err := g.Attach(sh.work, sh.deadline, sh.odRate)
	if err != nil {
		t.Fatal(err)
	}
	upd := late.Update()
	if upd.Generation != 1 || !upd.Changed || upd.Tick != joinAt || upd.Steps != joinAt || late.Generation() != 1 {
		t.Fatalf("late scorer's first update: %+v, want generation 1 at tick %d", upd, joinAt)
	}
	want, err := NewEvaluator().Rank(late.request(prefixSet(set, joinAt)))
	if err != nil {
		t.Fatal(err)
	}
	if !plansEqual(upd.Plans, want) || !plansEqual(late.Plans(), want) {
		t.Fatal("late scorer's first table diverges from Rank over the grid window")
	}
	if early.Generation() == 0 {
		t.Fatal("early scorer never published")
	}
	for i := joinAt; i < joinAt+8; i++ {
		if err := g.Advance(row(i)); err != nil {
			t.Fatal(err)
		}
		want, err := NewEvaluator().Rank(late.request(prefixSet(set, i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if !plansEqual(late.Plans(), want) {
			t.Fatalf("tick %d: late scorer diverges from Rank", i)
		}
	}
	g.Detach(late)
	frozen := late.Update()
	if err := g.Advance(row(joinAt + 8)); err != nil {
		t.Fatal(err)
	}
	if late.Update().Tick != frozen.Tick || early.Update().Tick != joinAt+9 {
		t.Fatalf("after detach: detached scorer at tick %d (want %d), attached at %d",
			late.Update().Tick, frozen.Tick, early.Update().Tick)
	}
}

// TestStreamGridScorerRestore pins the split restore: a grid restored
// from one shape's snapshot accepts another shape's snapshot of the same
// window and refuses one whose window differs — rows, start or tick
// count — without touching the scorer.
func TestStreamGridScorerRestore(t *testing.T) {
	set := paperRegimes()["moderate/day1"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = -1
	g, err := NewStreamGrid(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var live []*StreamScorer
	for _, sh := range gridShapes {
		s, err := g.Attach(sh.work, sh.deadline, sh.odRate)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, s)
	}
	for i := 0; i < 24; i++ {
		if err := g.Advance(set.PricesAt(set.Start() + int64(i)*set.Step())); err != nil {
			t.Fatal(err)
		}
	}
	snaps := make([]*StreamSnapshot, len(live))
	for i, s := range live {
		snaps[i] = s.Snapshot()
	}

	restored, err := NewStreamGrid(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snaps[0]); err != nil {
		t.Fatal(err)
	}
	for i, sh := range gridShapes {
		s, err := restored.Attach(sh.work, sh.deadline, sh.odRate)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(snaps[i]); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if s.Generation() != live[i].Generation() || !plansEqual(s.Plans(), live[i].Plans()) {
			t.Fatalf("shape %d: restored generation %d, live %d", i, s.Generation(), live[i].Generation())
		}
	}

	for name, edit := range map[string]func(*StreamSnapshot){
		"rows":  func(c *StreamSnapshot) { c.Rows[5][1] *= 3 },
		"start": func(c *StreamSnapshot) { c.Start += c.Step },
		"ticks": func(c *StreamSnapshot) { c.Ticks++ },
	} {
		c := *snaps[1]
		c.Rows = make([][]float64, len(snaps[1].Rows))
		for i, row := range snaps[1].Rows {
			c.Rows[i] = append([]float64(nil), row...)
		}
		edit(&c)
		c.StateDigest = c.digest(live[1].Plans()) // a self-consistent snapshot of another window
		s, err := restored.Attach(gridShapes[1].work, gridShapes[1].deadline, gridShapes[1].odRate)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Restore(&c)
		if err == nil || !strings.Contains(err.Error(), "differs from its grid") {
			t.Fatalf("%s: restore of a different window: %v", name, err)
		}
		if s.Generation() != 1 {
			t.Fatalf("%s: refused restore moved the scorer to generation %d", name, s.Generation())
		}
		restored.Detach(s)
	}
}

// checkResidentBound asserts what a grid keeps between ticks: per chain
// memo one model slot at the head step (so at most one live model) and
// the head step's uptime row, per permutation the head interval slot,
// each in storage sized to it, and free lists holding one model per
// chain memo and no memo columns.
func checkResidentBound(t *testing.T, g *StreamGrid, tick int) {
	t.Helper()
	b := g.b
	head := b.nsteps - 1
	for i, cm := range b.chains {
		live := 0
		for j, m := range cm.models {
			if cm.done[j] && m != nil {
				live++
			}
		}
		if cm.base != head || len(cm.models) != 1 || cap(cm.models) > 4 || live > 1 {
			t.Fatalf("tick %d: chain memo %d keeps steps from %d (%d slots, cap %d, %d live models), want the head %d alone",
				tick, i, cm.base, len(cm.models), cap(cm.models), live, head)
		}
		if cm.ustride > 0 && (cm.usolve.base != head*cm.ustride || len(cm.usolve.vals) != cm.ustride || cap(cm.usolve.vals) > 4*cm.ustride) {
			t.Fatalf("tick %d: chain memo %d uptime column holds %d slots (cap %d) from %d, want the head row of %d",
				tick, i, len(cm.usolve.vals), cap(cm.usolve.vals), cm.usolve.base, cm.ustride)
		}
	}
	for i := range b.perms {
		if iv := b.perms[i].ivals; iv != nil && (iv.base != head || len(iv.vals) != 1 || cap(iv.vals) > 4) {
			t.Fatalf("tick %d: permutation %d interval memo holds %d slots (cap %d) from %d, want the head %d alone",
				tick, i, len(iv.vals), cap(iv.vals), iv.base, head)
		}
	}
	if len(b.freeModels) > len(b.chains) || len(b.freeIvals) != 0 || len(b.freeChains) != 0 {
		t.Fatalf("tick %d: free lists hold %d models, %d interval memos, %d chain memos; want at most %d, 0, 0",
			tick, len(b.freeModels), len(b.freeIvals), len(b.freeChains), len(b.chains))
	}
}

// TestStreamGridResidentBound pins the grid's between-ticks bound
// through every event that replays from the window start — warm-up, a
// zone-order churn tick that catches permutations up, a forced
// cross-check mismatch and the rebuild after it, compactions past
// MaxSteps, and a Restore — and requires after every tick a table equal
// to Rank over the same window.
func TestStreamGridResidentBound(t *testing.T) {
	set := paperRegimes()["high/day3"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = 16
	cfg.MaxSteps = 64
	newGrid := func() (*StreamGrid, *StreamScorer) {
		g, err := NewStreamGrid(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
		if err != nil {
			t.Fatal(err)
		}
		return g, s
	}
	g, s := newGrid()
	ref := &Evaluator{Workers: 1}
	shadow, err := trace.NewTape(cfg.Zones, cfg.Start, cfg.Step)
	if err != nil {
		t.Fatal(err)
	}
	const corruptAt, restoreAt = 47, 100 // tick 48 cross-checks; neither compacts
	events := map[string]int{}
	restored := false
	n := min(set.Series[0].Len(), 200)
	for i := 0; i < n; i++ {
		switch i {
		case corruptAt:
			// Skew every resident permutation's cost, so this tick's
			// cross-check disagrees and adopts the reference estimates.
			for k := range g.b.perms {
				g.b.perms[k].cost++
			}
		case restoreAt:
			snap := s.Snapshot()
			g, s = newGrid()
			if err := g.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if err := s.Restore(snap); err != nil {
				t.Fatal(err)
			}
			restored = true
		}
		before := g.Stats()
		row := set.PricesAt(set.Start() + int64(i)*set.Step())
		if err := g.Advance(row); err != nil {
			t.Fatal(err)
		}
		if err := shadow.Append(row); err != nil {
			t.Fatal(err)
		}
		if shadow.Len() > cfg.MaxSteps {
			shadow = shadow.Tail(cfg.MaxSteps / 2)
		}
		after := g.Stats()
		rebuilt := after.Rebuilds > before.Rebuilds
		switch {
		case restored:
			events["restore"]++
			restored = false
		case after.CrossCheckMismatches > before.CrossCheckMismatches:
			events["mismatch"]++
		case after.Compactions > before.Compactions:
			events["compaction"]++
		case rebuilt && i > 0:
			events["rebuild"]++
		case after.CatchUps > before.CatchUps && !rebuilt && i > 0:
			events["catch-up"]++
		default:
			events["tick"]++
		}
		checkResidentBound(t, g, i)
		want, err := ref.Rank(s.request(shadow.Set()))
		if err != nil {
			t.Fatal(err)
		}
		if !plansEqual(s.Update().Plans, want) {
			t.Fatalf("tick %d: table diverges from Rank over the same window", i)
		}
	}
	for _, ev := range []string{"tick", "catch-up", "mismatch", "rebuild", "compaction", "restore"} {
		if events[ev] == 0 {
			t.Errorf("no %s tick in %d ticks (%v)", ev, n, events)
		}
	}
}

// TestStreamGridFitterBound warms the StreamResident benchmark's grid
// (high-volatility preset, max_zones 3, no cross-check) to one tick
// short of its retention bound and requires that a chain memo holds no
// column of the window: each fitter keeps at most 2·(span/step)+2 state
// ids, twice its trailing fit window, and no other buffer of the memo
// holds more.
func TestStreamGridFitterBound(t *testing.T) {
	set := tracegen.HighVolatility(33)
	cfg := streamConfigFor(set)
	cfg.Work, cfg.Deadline = 6*trace.Hour, 9*trace.Hour
	cfg.MaxZones = 3
	cfg.CrossCheckEvery = -1
	g, err := NewStreamGrid(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate); err != nil {
		t.Fatal(err)
	}
	last := DefaultStreamRetention - 1
	for i := 1; i <= last; i++ {
		if err := g.Advance(set.PricesAt(set.Start() + int64(i-1)*set.Step())); err != nil {
			t.Fatal(err)
		}
		if i%1024 != 0 && i != last {
			continue
		}
		fitted := 0
		for ci, cm := range g.b.chains {
			bound := 2*int(g.b.chainKeys[ci].span/set.Step()) + 2
			if cm.wf.Len() > 0 {
				fitted++
				if n := cm.wf.Retained(); n > bound {
					t.Fatalf("tick %d: chain memo %d fitter holds %d ids of %d, bound %d", i, ci, n, cm.wf.Len(), bound)
				}
			}
			v := reflect.ValueOf(cm).Elem()
			for f := 0; f < v.NumField(); f++ {
				if fv := v.Field(f); fv.Kind() == reflect.Slice && fv.Len() > bound {
					t.Fatalf("tick %d: chain memo %d keeps %d entries in %s, bound %d",
						i, ci, fv.Len(), v.Type().Field(f).Name, bound)
				}
			}
		}
		if fitted == 0 {
			t.Fatalf("tick %d: no chain memo has fitted", i)
		}
	}
	if st := g.Stats(); st.Compactions != 0 || g.b.nsteps != last {
		t.Fatalf("grid window %d steps after %d compactions, want %d and none", g.b.nsteps, st.Compactions, last)
	}
}
