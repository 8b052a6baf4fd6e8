package core

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestStreamSnapshotResume is the crash-recovery contract: a grid and
// scorer restored from a mid-stream snapshot and its window, fed only
// the ticks after it, stay bit-identical — update by update — to the
// pair that never crashed. The snapshot goes through a JSON round trip
// first, exactly as a snapshot store would persist it.
func TestStreamSnapshotResume(t *testing.T) {
	set := paperRegimes()["high/day3"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = -1
	live := newGridFeed(t, cfg)
	ls, err := live.g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
	if err != nil {
		t.Fatal(err)
	}
	n := set.Series[0].Len()
	crash := n / 2
	for i := 0; i < crash; i++ {
		live.advance(t, set.PricesAt(set.Start()+int64(i)*set.Step()))
	}
	snap := ls.Snapshot(live.tape.Set())
	if snap.Ticks != uint64(crash) || snap.Generation != ls.Generation() {
		t.Fatalf("snapshot counters (%d, %d) disagree with the scorer (%d, %d)",
			snap.Ticks, snap.Generation, crash, ls.Generation())
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var thawed StreamSnapshot
	if err := json.Unmarshal(raw, &thawed); err != nil {
		t.Fatal(err)
	}
	resumed := live.restored(t, cfg)
	rs, err := resumed.g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Restore(resumed.tape.Set(), &thawed); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if rs.Generation() != ls.Generation() || !plansEqual(rs.Plans(), ls.Plans()) {
		t.Fatal("restored table differs from the live one at the snapshot point")
	}
	// Catch-up: only the post-snapshot ticks, in lockstep with the
	// never-crashed pair.
	for i := crash; i < n; i++ {
		row := set.PricesAt(set.Start() + int64(i)*set.Step())
		live.advance(t, row)
		resumed.advance(t, row)
		got, want := rs.Update(), ls.Update()
		if got.Generation != want.Generation || got.Tick != want.Tick || got.Changed != want.Changed {
			t.Fatalf("tick %d: resumed (gen %d tick %d changed %v) vs live (gen %d tick %d changed %v)",
				i, got.Generation, got.Tick, got.Changed, want.Generation, want.Tick, want.Changed)
		}
		if !plansEqual(got.Plans, want.Plans) {
			t.Fatalf("tick %d: resumed table diverges from the live one", i)
		}
	}
}

// TestStreamSnapshotRefusals pins every way a restore must say no: a
// missing snapshot, a tampered window, a tampered digest, a window of
// another step or zone set, and a grid that has already stepped.
func TestStreamSnapshotRefusals(t *testing.T) {
	set := paperRegimes()["low/day1"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = -1
	src := newGridFeed(t, cfg)
	s, err := src.g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		src.advance(t, set.PricesAt(set.Start()+int64(i)*set.Step()))
	}
	win := src.tape.Set()
	snap := s.Snapshot(win)

	// restore restores a fresh grid over the window and the snapshot
	// onto a fresh scorer of the shape.
	restore := func(grid *StreamGrid, snap *StreamSnapshot) error {
		if err := grid.Restore(win, snap.Ticks); err != nil {
			return err
		}
		sc, err := grid.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
		if err != nil {
			t.Fatal(err)
		}
		return sc.Restore(win, snap)
	}
	fresh := func(cfg StreamConfig) *StreamGrid {
		g, err := NewStreamGrid(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	if err := restore(fresh(cfg), snap); err != nil {
		t.Fatalf("untouched snapshot refused: %v", err)
	}

	sc, err := fresh(cfg).Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Restore(win, nil); err == nil {
		t.Fatal("nil snapshot restored")
	}

	// The window enters the digest: a snapshot of another window is
	// refused.
	other := newGridFeed(t, cfg)
	for i := 0; i < 32; i++ {
		row := set.PricesAt(set.Start() + int64(i)*set.Step())
		if i == 3 {
			row[0] *= 7
		}
		other.advance(t, row)
	}
	tampered := *snap
	tampered.StateDigest = (&tampered).digest(other.tape.Set(), s.Plans())
	if err := restore(fresh(cfg), &tampered); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered window restored: %v", err)
	}

	badDigest := *snap
	badDigest.StateDigest = "deadbeefdeadbeef"
	if err := restore(fresh(cfg), &badDigest); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered digest restored: %v", err)
	}

	wrongStep := cfg
	wrongStep.Step++
	if err := restore(fresh(wrongStep), snap); err == nil {
		t.Fatal("window of another step restored")
	}

	wrongZones := cfg
	wrongZones.Zones = append([]string{"nowhere-1x"}, cfg.Zones...)
	if err := restore(fresh(wrongZones), snap); err == nil {
		t.Fatal("window of another zone set restored")
	}

	used := newGridFeed(t, cfg)
	used.advance(t, set.PricesAt(set.Start()))
	if err := restore(used.g, snap); err == nil {
		t.Fatal("restore onto a stepped grid succeeded")
	}
}

// TestStreamSnapshotEmpty pins the pre-first-tick snapshot: restoring
// it is a no-op, and the restored pair's first tick matches a fresh
// pair's.
func TestStreamSnapshotEmpty(t *testing.T) {
	set := paperRegimes()["moderate/day1"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = -1
	a := newGridFeed(t, cfg)
	as, err := a.g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
	if err != nil {
		t.Fatal(err)
	}
	snap := as.Snapshot(a.tape.Set())
	if snap.Ticks != 0 || snap.Generation != 0 {
		t.Fatalf("fresh snapshot not empty: %+v", snap)
	}
	b := a.restored(t, cfg)
	bs, err := b.g.Attach(cfg.Work, cfg.Deadline, cfg.OnDemandRate)
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Restore(b.tape.Set(), snap); err != nil {
		t.Fatalf("empty restore: %v", err)
	}
	row := set.PricesAt(set.Start())
	a.advance(t, row)
	b.advance(t, row)
	if ua, ub := as.Update(), bs.Update(); ua.Generation != ub.Generation || !plansEqual(ua.Plans, ub.Plans) {
		t.Fatal("empty-restored pair diverges from a fresh one")
	}
}
