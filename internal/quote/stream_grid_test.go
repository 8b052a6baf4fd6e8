package quote

import (
	"context"
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
func rankWindow(t testing.TB, st *Streamer, req Request, rows [][]float64) []core.Plan {
	t.Helper()
	tape, err := trace.NewTape(st.Zones, st.Start, st.Step)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := tape.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return rankSet(t, st, req, tape.Set())
}

// rankSet is Rank over hist for one shape, as the streamer configures
// it.
func rankSet(t testing.TB, st *Streamer, req Request, hist *trace.Set) []core.Plan {
	t.Helper()
	req.Normalize()
	cfg := st.streamConfigLocked(req)
	plans, err := core.NewEvaluator().Rank(core.PlanRequest{
		History:        hist,
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
		cfg := st.streamConfigLocked(r)
		cfg.Start = st.Start
		if alone[i], err = core.NewStreamEvaluator(nil, cfg); err != nil {
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
// grids: the grid is restored once, from its first shape, and every
// later shape of that grid must match it, so a checkpoint whose
// same-grid shapes disagree on the tick or the table digest, or that
// lists a shape twice, is refused whole and leaves the streamer fresh.
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
	if len(src.grids) != 1 {
		t.Fatalf("%d grids, want the two shapes on one", len(src.grids))
	}
	for name, tc := range map[string]struct {
		edit func(*StreamerSnapshot)
		want string
	}{
		"tick": {func(c *StreamerSnapshot) {
			state := *c.Shapes[1].State
			state.Ticks++
			c.Shapes[1].State = &state
		}, "at tick"},
		"digest": {func(c *StreamerSnapshot) {
			state := *c.Shapes[1].State
			state.StateDigest = c.Shapes[0].State.StateDigest
			c.Shapes[1].State = &state
		}, "digest"},
		"duplicate": {func(c *StreamerSnapshot) { c.Shapes[1] = c.Shapes[0] }, "twice"},
	} {
		bad := *snap
		bad.Shapes = append([]ShapeSnapshot(nil), snap.Shapes...)
		tc.edit(&bad)
		st := fx.streamer()
		if err := st.Restore(&bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: split-grid snapshot restored: %v", name, err)
		}
		if st.Seq() != 0 || st.Metrics.Restores.Load() != 0 || len(st.shapes) != 0 || len(st.grids) != 0 {
			t.Fatalf("%s: refused restore left seq %d, %d shapes, %d grids", name, st.Seq(), len(st.shapes), len(st.grids))
		}
	}
}

// TestStreamerRestoresPerShapeCheckpoint restores a checkpoint written
// by a streamer that kept one full evaluator per shape (testdata): three
// shapes on two grids, twelve ticks, every shape carrying its own copy
// of the window. The JSON decode skips those copies, the digests cover
// the one window, so it restores unedited, and every shape resumes
// with the event a streamer fed the same ticks publishes.
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

// TestStreamerOneWindow is the differential for the streamer's one
// window. Over a feed of more than five windows' worth of ticks with
// ordering flips, a duplicate, gap fills and a jump past Backlog, shapes
// subscribe before the first tick, mid-stream, after the first
// compaction and again after an unsubscribe, on grids of max_zones 1–3,
// and a second streamer resumes from a mid-stream checkpoint. At every
// tick each of their shapes must publish exactly the event (every
// field but the generation) that the same shape publishes on a
// streamer where every shape subscribed before the first tick, and
// every table must equal Rank over Streamer.History's window.
func TestStreamerOneWindow(t *testing.T) {
	const backlog = 16
	fx := newStreamFixture()
	newStreamer := func() *Streamer {
		st := fx.streamer()
		st.Backlog = backlog
		st.CrossCheckEvery = 7
		return st
	}
	shapes := []Request{
		{WorkHours: 4, DeadlineHours: 12, MaxZones: 2, Top: 3},
		{WorkHours: 3, DeadlineHours: 5, MaxZones: 3, Top: 4},
		{WorkHours: 8, DeadlineHours: 9, MaxZones: 1, OnDemandPrice: 0.3, Top: 2},
		{WorkHours: 2, DeadlineHours: 3, MaxZones: 2, Top: 5},
	}
	// Feed ops and when the subject streamer's shapes come and go.
	type op struct {
		seq uint64
		row []float64
	}
	var ops []op
	seq := uint64(0)
	for i := 0; i < 6*backlog; i++ {
		switch i {
		case 25:
			seq += 3 // a gap: two held rows fill it
		case 70:
			seq += 2 * backlog // a jump past Backlog restarts the window
		}
		seq++
		row := fx.row(i)
		if i%7 == 3 {
			row = fx.reorderRow(i)
		}
		ops = append(ops, op{seq, row})
		if i == 10 {
			ops = append(ops, op{seq, row}) // a duplicate
		}
	}
	subscribeAt := map[int][]int{0: {0}, 20: {1}, 40: {2}, 50: {3}, 66: {1}}
	const unsubscribeAt, checkpointAt = 60, 45

	ref := newStreamer()
	refSubs := make([]*StreamSub, len(shapes))
	for k, r := range shapes {
		var err error
		if refSubs[k], err = ref.Subscribe(r); err != nil {
			t.Fatal(err)
		}
	}
	type subject struct {
		name string
		st   *Streamer
		subs []*StreamSub // by shape; nil while unsubscribed
		last []*StreamEvent
	}
	st := &subject{name: "subject", st: newStreamer(), subs: make([]*StreamSub, len(shapes)), last: make([]*StreamEvent, len(shapes))}
	subjects := []*subject{st}
	refLast := make([]*StreamEvent, len(shapes))

	noGen := func(ev *StreamEvent) string {
		c := *ev
		c.Generation = 0
		b, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// checkTable requires the shape's table to equal Rank over the
	// streamer's History window (which needs two samples).
	checkTable := func(s *subject, k, i int) {
		if s.st.tape.Len() < 2 {
			return
		}
		hist, _, err := s.st.History(context.Background(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.subs[k].shape.sc.Plans(), rankSet(t, s.st, shapes[k], hist); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: %s shape %d's table diverges from Rank over its %d-row History window", i, s.name, k, hist.Series[0].Len())
		}
	}
	subscribe := func(s *subject, k, i int) {
		sub, err := s.st.Subscribe(shapes[k])
		if err != nil {
			t.Fatal(err)
		}
		s.subs[k], s.last[k] = sub, sub.Snapshot()
		if sub.Snapshot() == nil && s.st.Seq() > 0 {
			t.Fatalf("op %d: %s shape %d subscribed to a running feed without a table", i, s.name, k)
		}
		if s.st.Seq() > 0 {
			checkTable(s, k, i)
		}
	}

	for i, o := range ops {
		for _, k := range subscribeAt[i] {
			subscribe(st, k, i)
		}
		if i == unsubscribeAt {
			st.subs[1].Close()
			st.subs[1], st.last[1] = nil, nil
		}
		if i == checkpointAt {
			raw, err := json.Marshal(st.st.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			snap, err := (&MemStore{raw: raw}).Load()
			if err != nil {
				t.Fatal(err)
			}
			rs := &subject{name: "restored", st: newStreamer(), subs: make([]*StreamSub, len(shapes)), last: make([]*StreamEvent, len(shapes))}
			if err := rs.st.Restore(snap); err != nil {
				t.Fatalf("restore: %v", err)
			}
			for k, sub := range st.subs {
				if sub != nil {
					subscribe(rs, k, i)
				}
			}
			subjects = append(subjects, rs)
		}

		if err := ref.Ingest(o.seq, o.row); err != nil {
			t.Fatal(err)
		}
		refPub := make([]bool, len(shapes))
		for k, sub := range refSubs {
			ev := ref.Latest(sub)
			refPub[k], refLast[k] = ev != refLast[k], ev
		}
		for _, s := range subjects {
			if err := s.st.Ingest(o.seq, o.row); err != nil {
				t.Fatal(err)
			}
			for k, sub := range s.subs {
				if sub == nil {
					continue
				}
				ev := s.st.Latest(sub)
				if pub := ev != s.last[k]; pub != refPub[k] {
					t.Fatalf("op %d (seq %d): %s shape %d published %v, reference %v", i, o.seq, s.name, k, pub, refPub[k])
				} else if pub {
					if got, want := noGen(ev), noGen(refLast[k]); got != want {
						t.Fatalf("op %d (seq %d): %s shape %d's event diverges\ngot  %s\nwant %s", i, o.seq, s.name, k, got, want)
					}
				}
				s.last[k] = ev
				checkTable(s, k, i)
			}
		}
	}
	for _, s := range subjects {
		if s.st.Metrics.TickErrors.Load() != 0 || s.st.Metrics.CrossCheckMismatches.Load() != 0 {
			t.Fatalf("%s: %d tick errors, %d cross-check mismatches", s.name,
				s.st.Metrics.TickErrors.Load(), s.st.Metrics.CrossCheckMismatches.Load())
		}
	}
	if ref.Metrics.GapFills.Load() == 0 || ref.Metrics.DupTicks.Load() == 0 {
		t.Fatal("the feed never gap-filled or duplicated")
	}
}

// TestStreamerCheckpointHoldsWindowOnce pins the checkpoint's size: the
// window is encoded once, in the streamer's backlog, so at a full
// window (2·Backlog ticks) each added shape grows the encoded
// checkpoint by its request, tick, generation and digest alone — under
// 1 KB — whichever grid it joins.
func TestStreamerCheckpointHoldsWindowOnce(t *testing.T) {
	const backlog = 64
	fx := newStreamFixture()
	shapes := []Request{
		{WorkHours: 4, DeadlineHours: 12, MaxZones: 2, Top: 3},
		{WorkHours: 2, DeadlineHours: 3, MaxZones: 2, Top: 5},
		{WorkHours: 4, DeadlineHours: 12, MaxZones: 3, Top: 3},
		{WorkHours: 8, DeadlineHours: 9, MaxZones: 1, OnDemandPrice: 0.3, Top: 2},
	}
	size := func(n int) int {
		st := fx.streamer()
		st.Backlog = backlog
		for _, r := range shapes[:n] {
			sub, err := st.Subscribe(r)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
		}
		for i := 0; i < 2*backlog; i++ {
			if err := st.Ingest(uint64(i+1), fx.row(i)); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := json.Marshal(st.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return len(raw)
	}
	base := size(1)
	for n := 2; n <= len(shapes); n++ {
		if grown := size(n) - base; grown >= 1024*(n-1) {
			t.Fatalf("%d shapes encode %d bytes more than one: not under 1 KB per added shape", n, grown)
		}
	}
}

// TestStreamerResidentBound pins the streamer's resident bound through
// trims, a gap and a restart, with grids created before the first
// tick, mid-stream and after a compaction: the window holds at most
// 2·Backlog rows, its columns keep storage for at most twice 2·Backlog+1
// rows, and every grid covers exactly the window — a grid holds no rows
// of its own (core's TestStreamGridHoldsNoWindow), only head state.
func TestStreamerResidentBound(t *testing.T) {
	const backlog = 16
	fx := newStreamFixture()
	st := fx.streamer()
	st.Backlog = backlog
	join := map[int]Request{
		0:  {WorkHours: 4, DeadlineHours: 12, MaxZones: 2, Top: 3},
		20: {WorkHours: 3, DeadlineHours: 5, MaxZones: 3, Top: 4},
		40: {WorkHours: 8, DeadlineHours: 9, MaxZones: 1, Top: 2},
	}
	seq := uint64(0)
	for i := 0; i < 8*backlog; i++ {
		if r, ok := join[i]; ok {
			sub, err := st.Subscribe(r)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
		}
		seq++
		switch i {
		case 50:
			seq += 5
		case 90:
			seq += 3 * backlog
		}
		if err := st.Ingest(seq, fx.row(i)); err != nil {
			t.Fatal(err)
		}
		n := st.tape.Len()
		if n > 2*backlog {
			t.Fatalf("tick %d: window holds %d rows, bound 2·Backlog = %d", i, n, 2*backlog)
		}
		for z, s := range st.tape.Set().Series {
			if c := cap(s.Prices); c > 2*(2*backlog+1) {
				t.Fatalf("tick %d: zone %d column keeps storage for %d rows", i, z, c)
			}
		}
		for key, gr := range st.grids {
			if gr.g.Steps() != n {
				t.Fatalf("tick %d: grid %d covers %d rows of a %d-row window", i, key, gr.g.Steps(), n)
			}
		}
	}
	if len(st.grids) != 3 {
		t.Fatalf("%d grids resident, want 3", len(st.grids))
	}
}
