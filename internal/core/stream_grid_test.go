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

// gridFeed is the caller side of a StreamGrid as the tests drive it:
// the one tape it owns, trimmed by a StreamEvaluator's rule, and the
// feed tick counter.
type gridFeed struct {
	tape  *trace.Tape
	keep  int
	ticks uint64
	g     *StreamGrid
}

// newGridFeed builds a grid over cfg with an empty tape at cfg.Start,
// trimmed past cfg.MaxSteps (0: DefaultStreamRetention) to half.
func newGridFeed(t *testing.T, cfg StreamConfig) *gridFeed {
	t.Helper()
	g, err := NewStreamGrid(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	retention := cfg.MaxSteps
	if retention == 0 {
		retention = DefaultStreamRetention
	}
	return &gridFeed{tape: newTape(t, cfg, cfg.Start), keep: retention / 2, g: g}
}

// newTape is an empty tape of cfg's zones and step starting at start.
func newTape(t *testing.T, cfg StreamConfig, start int64) *trace.Tape {
	t.Helper()
	tape, err := trace.NewTape(cfg.Zones, start, cfg.Step)
	if err != nil {
		t.Fatal(err)
	}
	return tape
}

// advance appends one row, trims the tape and steps the grid to it.
func (f *gridFeed) advance(t *testing.T, row []float64) {
	t.Helper()
	if err := f.tape.Append(row); err != nil {
		t.Fatal(err)
	}
	f.tape.Trim(f.keep)
	f.ticks++
	if err := f.g.Advance(f.tape.Set(), f.ticks); err != nil {
		t.Fatal(err)
	}
}

// restored is a fresh grid over cfg restored from f's window and tick,
// on a copy of f's tape.
func (f *gridFeed) restored(t *testing.T, cfg StreamConfig) *gridFeed {
	t.Helper()
	r := newGridFeed(t, cfg)
	r.tape, r.ticks = newTape(t, cfg, f.tape.Start()), f.ticks
	win := f.tape.Set()
	for i := 0; i < f.tape.Len(); i++ {
		if err := r.tape.Append(win.PricesAt(win.Start() + int64(i)*win.Step())); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.g.Restore(r.tape.Set(), r.ticks); err != nil {
		t.Fatal(err)
	}
	return r
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
		feed := newGridFeed(t, cfg)
		g := feed.g
		scorers := make([]*StreamScorer, len(gridShapes))
		alone := make([]*StreamEvaluator, len(gridShapes))
		for i, sh := range gridShapes {
			var err error
			if scorers[i], err = g.Attach(sh.work, sh.deadline, sh.odRate); err != nil {
				t.Fatal(err)
			}
			alone[i] = standaloneFor(t, cfg, sh)
		}
		n := min(set.Series[0].Len(), 120)
		for i := 0; i < n; i++ {
			row := set.PricesAt(set.Start() + int64(i)*set.Step())
			feed.advance(t, row)
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
				rank, err := ref.Rank(s.request(feed.tape.Set()))
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
	feed := newGridFeed(t, cfg)
	g := feed.g
	early, err := g.Attach(cfg.Work, cfg.Deadline, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int) []float64 { return set.PricesAt(set.Start() + int64(i)*set.Step()) }
	const joinAt = 40
	for i := 0; i < joinAt; i++ {
		feed.advance(t, row(i))
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
		feed.advance(t, row(i))
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
	feed.advance(t, row(joinAt+8))
	if late.Update().Tick != frozen.Tick || early.Update().Tick != joinAt+9 {
		t.Fatalf("after detach: detached scorer at tick %d (want %d), attached at %d",
			late.Update().Tick, frozen.Tick, early.Update().Tick)
	}
}

// TestStreamGridScorerRestore pins the split restore: a grid restored
// over a window accepts every shape's snapshot of it, and a scorer
// refuses a snapshot of another tick, another generation or another
// window — any of which the digest or the tick check catches — without
// moving.
func TestStreamGridScorerRestore(t *testing.T) {
	set := paperRegimes()["moderate/day1"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = -1
	feed := newGridFeed(t, cfg)
	var live []*StreamScorer
	for _, sh := range gridShapes {
		s, err := feed.g.Attach(sh.work, sh.deadline, sh.odRate)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, s)
	}
	for i := 0; i < 24; i++ {
		feed.advance(t, set.PricesAt(set.Start()+int64(i)*set.Step()))
	}
	win := feed.tape.Set()
	snaps := make([]*StreamSnapshot, len(live))
	for i, s := range live {
		snaps[i] = s.Snapshot(win)
	}

	restored := feed.restored(t, cfg)
	rwin := restored.tape.Set()
	for i, sh := range gridShapes {
		s, err := restored.g.Attach(sh.work, sh.deadline, sh.odRate)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(rwin, snaps[i]); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if s.Generation() != live[i].Generation() || !plansEqual(s.Plans(), live[i].Plans()) {
			t.Fatalf("shape %d: restored generation %d, live %d", i, s.Generation(), live[i].Generation())
		}
	}

	other := restored.tape.Set().Slice(rwin.Start(), rwin.End())
	other.Series[1] = other.Series[1].Clone()
	other.Series[1].Prices[5] *= 3
	for name, tc := range map[string]struct {
		edit func(*StreamSnapshot)
		win  *trace.Set
		want string
	}{
		"ticks":      {func(c *StreamSnapshot) { c.Ticks++ }, rwin, "at tick"},
		"generation": {func(c *StreamSnapshot) { c.Generation++ }, rwin, "digest"},
		"digest":     {func(c *StreamSnapshot) { c.StateDigest = "deadbeefdeadbeef" }, rwin, "digest"},
		"window":     {func(*StreamSnapshot) {}, other, "digest"},
	} {
		c := *snaps[1]
		tc.edit(&c)
		s, err := restored.g.Attach(gridShapes[1].work, gridShapes[1].deadline, gridShapes[1].odRate)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Restore(tc.win, &c)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: restore of another state: %v", name, err)
		}
		if s.Generation() != 1 {
			t.Fatalf("%s: refused restore moved the scorer to generation %d", name, s.Generation())
		}
		restored.g.Detach(s)
	}
}

// TestStreamGridHoldsNoWindow pins where the window lives: in the
// caller's tape, never in a grid. No field of StreamGrid is a tape, a
// set or a row list, so a streamer's grids share its one window.
func TestStreamGridHoldsNoWindow(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(trace.Tape{}):      true,
		reflect.TypeOf(&trace.Tape{}):     true,
		reflect.TypeOf(trace.Set{}):       true,
		reflect.TypeOf(&trace.Set{}):      true,
		reflect.TypeOf([][]float64{}):     true,
		reflect.TypeOf([]*trace.Series{}): true,
	}
	typ := reflect.TypeOf(StreamGrid{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); banned[f.Type] {
			t.Errorf("StreamGrid.%s is a %s: the window belongs to the grid's caller", f.Name, f.Type)
		}
	}
}

// checkResidentBound asserts what a grid keeps between ticks: per chain
// memo one fit slot at the head step, holding at most the head's fitted
// states, and the head step's uptime row, per permutation the head
// interval slot, each in storage sized to it, and free lists holding no
// memo columns.
func checkResidentBound(t *testing.T, g *StreamGrid, tick int) {
	t.Helper()
	b := g.b
	head := b.nsteps - 1
	for i, cm := range b.chains {
		if cm.base != head || len(cm.fits) != 1 || cap(cm.fits) > 4 {
			t.Fatalf("tick %d: chain memo %d keeps steps from %d (%d slots, cap %d), want the head %d alone",
				tick, i, cm.base, len(cm.fits), cap(cm.fits), head)
		}
		room := int(max(cm.fits[0].n, 0)) + cm.wf.Slots()
		if f := cm.fits[0]; len(cm.states) != int(max(f.n, 0)) || f.off != 0 || cap(cm.states) > 4*room {
			t.Fatalf("tick %d: chain memo %d holds %d fitted states (cap %d, the head's %d from %d), want the head's alone",
				tick, i, len(cm.states), cap(cm.states), f.n, f.off)
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
	if len(b.freeIvals) != 0 || len(b.freeChains) != 0 {
		t.Fatalf("tick %d: free lists hold %d interval memos, %d chain memos; want none",
			tick, len(b.freeIvals), len(b.freeChains))
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
	feed := newGridFeed(t, cfg)
	s, err := feed.g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
	if err != nil {
		t.Fatal(err)
	}
	ref := &Evaluator{Workers: 1}
	const corruptAt, restoreAt = 47, 100 // tick 48 cross-checks; neither compacts
	events := map[string]int{}
	restored := false
	n := min(set.Series[0].Len(), 200)
	for i := 0; i < n; i++ {
		switch i {
		case corruptAt:
			// Skew every resident permutation's cost, so this tick's
			// cross-check disagrees and adopts the reference estimates.
			for k := range feed.g.b.perms {
				feed.g.b.perms[k].cost++
			}
		case restoreAt:
			snap := s.Snapshot(feed.tape.Set())
			feed = feed.restored(t, cfg)
			if s, err = feed.g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate); err != nil {
				t.Fatal(err)
			}
			if err := s.Restore(feed.tape.Set(), snap); err != nil {
				t.Fatal(err)
			}
			restored = true
		}
		before := feed.g.Stats()
		feed.advance(t, set.PricesAt(set.Start()+int64(i)*set.Step()))
		after := feed.g.Stats()
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
		checkResidentBound(t, feed.g, i)
		want, err := ref.Rank(s.request(feed.tape.Set()))
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
// column of the window: each fitter counts over at most 2·(span/step)+2
// slots, twice its trailing fit window, and holds no ids (it reads the
// tape's states), and no other buffer of the memo holds more.
func TestStreamGridFitterBound(t *testing.T) {
	set := tracegen.HighVolatility(33)
	cfg := streamConfigFor(set)
	cfg.Work, cfg.Deadline = 6*trace.Hour, 9*trace.Hour
	cfg.MaxZones = 3
	cfg.CrossCheckEvery = -1
	feed := newGridFeed(t, cfg)
	g := feed.g
	if _, err := g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate); err != nil {
		t.Fatal(err)
	}
	last := DefaultStreamRetention - 1
	for i := 1; i <= last; i++ {
		feed.advance(t, set.PricesAt(set.Start()+int64(i-1)*set.Step()))
		if i%1024 != 0 && i != last {
			continue
		}
		fitted := 0
		for ci, cm := range g.b.chains {
			bound := 2*int(cm.key.span/set.Step()) + 2
			if cm.wf.Len() > 0 {
				fitted++
				if n := cm.wf.Slots(); n > bound {
					t.Fatalf("tick %d: chain memo %d fitter counts over %d slots for %d samples, bound %d", i, ci, n, cm.wf.Len(), bound)
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
