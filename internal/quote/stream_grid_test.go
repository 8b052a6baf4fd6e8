package quote

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// gridFixtureShapes are four shapes on two grids: two with max_zones 2
// and two with max_zones 3, differing in work, deadline, price and Top.
func gridFixtureShapes() []Request {
	return []Request{
		{WorkHours: 4, DeadlineHours: 12, MaxZones: 2, Top: 3},
		{WorkHours: 2, DeadlineHours: 3, MaxZones: 2, Top: 5},
		{WorkHours: 4, DeadlineHours: 12, MaxZones: 3, Top: 3},
		{WorkHours: 8, DeadlineHours: 9, MaxZones: 3, OnDemandPrice: 0.3, Top: 2},
	}
}

// rankWindow is Rank over the fed rows for one shape, as the streamer
// configures it.
func rankWindow(t *testing.T, st *Streamer, req Request, rows [][]float64) []core.Plan {
	t.Helper()
	req.Normalize()
	cfg := st.streamConfigLocked(req)
	tape, err := trace.NewTape(st.Zones, st.Start, st.Step)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := tape.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	plans, err := core.NewEvaluator().Rank(core.PlanRequest{
		History:        tape.Set(),
		Work:           cfg.Work,
		Deadline:       cfg.Deadline,
		CheckpointCost: cfg.CheckpointCost,
		RestartCost:    cfg.RestartCost,
		OnDemandRate:   cfg.OnDemandRate,
		MaxZones:       cfg.MaxZones,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// TestStreamerSharedGrids pins the streamer's grid sharing: shapes that
// differ only in what a scorer owns share one resident grid per
// max_zones, each shape publishes exactly the generations and tables of
// a standalone core.StreamEvaluator fed the same ticks, every table
// equals Rank over the window, the dense cross-check never disagrees,
// a late subscriber joins its resident grid at generation 1, and the
// last shape of a grid releases it.
func TestStreamerSharedGrids(t *testing.T) {
	fx := newStreamFixture()
	st := fx.streamer()
	st.CrossCheckEvery = 3
	shapes := gridFixtureShapes()
	subs := make([]*StreamSub, len(shapes))
	alone := make([]*core.StreamEvaluator, len(shapes))
	for i, r := range shapes {
		var err error
		if subs[i], err = st.Subscribe(r); err != nil {
			t.Fatal(err)
		}
		r.Normalize()
		if alone[i], err = core.NewStreamEvaluator(nil, st.streamConfigLocked(r)); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.grids) != 2 || len(st.shapes) != len(shapes) {
		t.Fatalf("%d grids for %d shapes, want 2 for %d", len(st.grids), len(st.shapes), len(shapes))
	}
	const n = 40
	var fed [][]float64
	for i := 0; i < n; i++ {
		row := fx.row(i)
		if i == 20 {
			row = fx.reorderRow(i)
		}
		fed = append(fed, row)
		if err := st.Ingest(uint64(i+1), row); err != nil {
			t.Fatal(err)
		}
		for k, sub := range subs {
			want, err := alone[k].Advance(row)
			if err != nil {
				t.Fatal(err)
			}
			got := sub.shape.sc.Plans()
			if st.Generation(sub) != want.Generation || !reflect.DeepEqual(got, want.Plans) {
				t.Fatalf("tick %d shape %d: generation %d, standalone %d", i, k, st.Generation(sub), want.Generation)
			}
		}
	}
	for k, sub := range subs {
		if !reflect.DeepEqual(sub.shape.sc.Plans(), rankWindow(t, st, shapes[k], fed)) {
			t.Fatalf("shape %d: table diverges from Rank over the window", k)
		}
	}
	for key, gr := range st.grids {
		if s := gr.g.Stats(); s.CrossChecks == 0 || s.CrossCheckMismatches != 0 {
			t.Fatalf("grid %d: %d cross-check mismatches over %d checks", key, s.CrossCheckMismatches, s.CrossChecks)
		}
	}
	if got := st.Metrics.CrossCheckMismatches.Load(); got != 0 {
		t.Fatalf("CrossCheckMismatches = %d", got)
	}

	// A new max_zones 2 shape joins the resident grid and scores its
	// window: generation 1 at the feed's current tick.
	lateReq := Request{WorkHours: 6, DeadlineHours: 10, MaxZones: 2, Top: 4}
	late, err := st.Subscribe(lateReq)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.grids) != 2 {
		t.Fatalf("late subscriber built a new grid: %d grids", len(st.grids))
	}
	snap := late.Snapshot()
	if snap == nil || snap.Generation != 1 || snap.Tick != n {
		t.Fatalf("late subscriber's first event %+v, want generation 1 at tick %d", snap, n)
	}
	want := rankWindow(t, st, lateReq, fed)
	if !reflect.DeepEqual(late.shape.sc.Plans(), want) || !reflect.DeepEqual(snap.Best, &wirePlans(want, 1)[0]) {
		t.Fatal("late subscriber's table diverges from Rank over the grid window")
	}
	fed = append(fed, fx.row(n))
	if err := st.Ingest(n+1, fx.row(n)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(late.shape.sc.Plans(), rankWindow(t, st, lateReq, fed)) {
		t.Fatal("late subscriber diverges from Rank after its first tick")
	}

	// Releasing: the last max_zones 3 shape frees its grid, the last
	// shape overall frees the other.
	subs[2].Close()
	if len(st.grids) != 2 {
		t.Fatalf("grid released with a shape still on it: %d grids", len(st.grids))
	}
	subs[3].Close()
	if len(st.grids) != 1 || st.grids[3] != nil {
		t.Fatalf("max_zones 3 grid not released: %v", st.grids)
	}
	for _, sub := range []*StreamSub{subs[0], subs[1], late} {
		sub.Close()
	}
	if len(st.grids) != 0 || len(st.shapes) != 0 {
		t.Fatalf("after the last unsubscribe: %d grids, %d shapes", len(st.grids), len(st.shapes))
	}
	// A fresh subscribe re-seeds a grid from the backlog.
	again, err := st.Subscribe(shapes[0])
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Snapshot() == nil || !reflect.DeepEqual(again.shape.sc.Plans(), rankWindow(t, st, shapes[0], fed)) {
		t.Fatal("re-created grid's table diverges from Rank over the backlog")
	}
}

// TestStreamerSharedGridCheckpoint is the checkpoint round trip over
// two grids: every shape resumes with its generation and table, and
// the resumed streamer publishes in lockstep with the one that never
// crashed.
func TestStreamerSharedGridCheckpoint(t *testing.T) {
	fx := newStreamFixture()
	live := fx.streamer()
	var subs []*StreamSub
	for _, r := range gridFixtureShapes() {
		sub, err := live.Subscribe(r)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs = append(subs, sub)
	}
	for i := 0; i < 16; i++ {
		if err := live.Ingest(uint64(i+1), fx.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := json.Marshal(live.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := (&MemStore{raw: raw}).Load()
	if err != nil {
		t.Fatal(err)
	}
	resumed := fx.streamer()
	if err := resumed.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(resumed.grids) != 2 || len(resumed.shapes) != len(subs) {
		t.Fatalf("restored %d grids, %d shapes", len(resumed.grids), len(resumed.shapes))
	}
	for i := 16; i < 24; i++ {
		row := fx.row(i)
		if i == 18 {
			row = fx.reorderRow(i)
		}
		for _, st := range []*Streamer{live, resumed} {
			if err := st.Ingest(uint64(i+1), row); err != nil {
				t.Fatal(err)
			}
		}
		for k, sub := range subs {
			got, err := json.Marshal(resumed.shapes[sub.shape.req.Key()].last)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(live.Latest(sub))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("tick %d shape %d: resumed event diverges\nresumed %s\nlive    %s", i, k, got, want)
			}
		}
	}
}

// TestStreamerRestoreRefusesSplitGrid pins the snapshot rule for shared
// grids: shapes of one grid must carry the same window, so a checkpoint
// whose same-grid shapes disagree on rows or start is refused whole and
// leaves the streamer fresh.
func TestStreamerRestoreRefusesSplitGrid(t *testing.T) {
	fx := newStreamFixture()
	src := fx.streamer()
	for _, r := range gridFixtureShapes()[:2] {
		sub, err := src.Subscribe(r)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
	}
	for i := 0; i < 8; i++ {
		if err := src.Ingest(uint64(i+1), fx.row(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := src.Snapshot()
	if len(snap.Shapes) != 2 {
		t.Fatalf("%d shapes in snapshot, want 2", len(snap.Shapes))
	}
	for name, edit := range map[string]func(*core.StreamSnapshot){
		"rows":  func(s *core.StreamSnapshot) { s.Rows[3] = []float64{9, 9, 9} },
		"start": func(s *core.StreamSnapshot) { s.Start -= s.Step },
	} {
		bad := *snap
		bad.Shapes = append([]ShapeSnapshot(nil), snap.Shapes...)
		state := *bad.Shapes[1].State
		state.Rows = append([][]float64(nil), state.Rows...)
		edit(&state)
		bad.Shapes[1].State = &state
		st := fx.streamer()
		err := st.Restore(&bad)
		if err == nil || !strings.Contains(err.Error(), "differs from its grid") {
			t.Fatalf("%s: split-grid snapshot restored: %v", name, err)
		}
		if st.Seq() != 0 || st.Metrics.Restores.Load() != 0 || len(st.shapes) != 0 || len(st.grids) != 0 {
			t.Fatalf("%s: refused restore left seq %d, %d shapes, %d grids", name, st.Seq(), len(st.shapes), len(st.grids))
		}
	}
	dup := *snap
	dup.Shapes = []ShapeSnapshot{snap.Shapes[0], snap.Shapes[0]}
	if err := fx.streamer().Restore(&dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate shape restored: %v", err)
	}
}

// TestStreamerRestoresPerShapeCheckpoint restores a checkpoint written
// by a streamer that kept one full evaluator per shape (testdata): three
// shapes on two grids, twelve ticks. The format is unchanged, so it
// restores, and every shape resumes with the event a streamer fed the
// same ticks publishes.
func TestStreamerRestoresPerShapeCheckpoint(t *testing.T) {
	raw, err := os.ReadFile("testdata/checkpoint_per_shape.json")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := (&MemStore{raw: raw}).Load()
	if err != nil {
		t.Fatal(err)
	}
	fx := newStreamFixture()
	resumed := fx.streamer()
	if err := resumed.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	live := fx.streamer()
	var subs []*StreamSub
	for _, ss := range snap.Shapes {
		sub, err := live.Subscribe(ss.Req)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs = append(subs, sub)
	}
	for i := 0; i < int(snap.Seq); i++ {
		row := fx.row(i)
		if i == 7 {
			row = fx.reorderRow(i)
		}
		if err := live.Ingest(uint64(i+1), row); err != nil {
			t.Fatal(err)
		}
	}
	if len(resumed.grids) != 2 {
		t.Fatalf("restored %d grids, want 2", len(resumed.grids))
	}
	for _, sub := range subs {
		// A restored event re-announces the checkpoint's table; it
		// carries no diff against a previous one.
		want := *live.Latest(sub)
		want.BestChanged, want.ChangedRanks = false, 0
		got, _ := json.Marshal(resumed.shapes[sub.shape.req.Key()].last)
		wantJSON, _ := json.Marshal(&want)
		if string(got) != string(wantJSON) {
			t.Fatalf("shape %s: restored event diverges\nrestored %s\nlive     %s", sub.shape.req.Key(), got, wantJSON)
		}
	}
}
