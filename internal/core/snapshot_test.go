package core

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestStreamSnapshotResume is the crash-recovery contract: an evaluator
// restored from a mid-stream snapshot and fed only the ticks after it
// stays bit-identical — update by update — to the evaluator that never
// crashed. The snapshot goes through a JSON round trip first, exactly
// as a snapshot store would persist it.
func TestStreamSnapshotResume(t *testing.T) {
	set := paperRegimes()["high/day3"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = -1
	live, err := NewStreamEvaluator(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := set.Series[0].Len()
	crash := n / 2
	for i := 0; i < crash; i++ {
		if _, err := live.Advance(set.PricesAt(set.Start() + int64(i)*set.Step())); err != nil {
			t.Fatal(err)
		}
	}
	snap := live.Snapshot()
	if snap.Ticks != uint64(crash) || snap.Generation != live.Generation() {
		t.Fatalf("snapshot counters (%d, %d) disagree with evaluator (%d, %d)",
			snap.Ticks, snap.Generation, crash, live.Generation())
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var thawed StreamSnapshot
	if err := json.Unmarshal(raw, &thawed); err != nil {
		t.Fatal(err)
	}
	resumed, err := NewStreamEvaluator(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(&thawed); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if resumed.Generation() != live.Generation() || !plansEqual(resumed.Plans(), live.Plans()) {
		t.Fatal("restored table differs from the live one at the snapshot point")
	}
	// Catch-up: only the post-snapshot ticks, in lockstep with the
	// never-crashed evaluator.
	for i := crash; i < n; i++ {
		row := set.PricesAt(set.Start() + int64(i)*set.Step())
		want, err := live.Advance(row)
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.Advance(row)
		if err != nil {
			t.Fatal(err)
		}
		if got.Generation != want.Generation || got.Tick != want.Tick || got.Changed != want.Changed {
			t.Fatalf("tick %d: resumed (gen %d tick %d changed %v) vs live (gen %d tick %d changed %v)",
				i, got.Generation, got.Tick, got.Changed, want.Generation, want.Tick, want.Changed)
		}
		if !plansEqual(got.Plans, want.Plans) {
			t.Fatalf("tick %d: resumed table diverges from the live one", i)
		}
	}
}

// TestStreamSnapshotRefusals pins every way Restore must say no: a
// missing snapshot, a tampered window, a tampered digest, mismatched
// geometry, and an evaluator that has already ingested ticks.
func TestStreamSnapshotRefusals(t *testing.T) {
	set := paperRegimes()["low/day1"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = -1
	se, err := NewStreamEvaluator(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := se.Advance(set.PricesAt(set.Start() + int64(i)*set.Step())); err != nil {
			t.Fatal(err)
		}
	}
	snap := se.Snapshot()

	fresh := func() *StreamEvaluator {
		ev, err := NewStreamEvaluator(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	copySnap := func() *StreamSnapshot {
		c := *snap
		c.Rows = make([][]float64, len(snap.Rows))
		for i, row := range snap.Rows {
			c.Rows[i] = append([]float64(nil), row...)
		}
		return &c
	}

	if err := fresh().Restore(nil); err == nil {
		t.Fatal("nil snapshot restored")
	}

	tampered := copySnap()
	tampered.Rows[3][0] *= 7
	if err := fresh().Restore(tampered); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered window restored: %v", err)
	}

	badDigest := copySnap()
	badDigest.StateDigest = "deadbeefdeadbeef"
	if err := fresh().Restore(badDigest); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered digest restored: %v", err)
	}

	wrongStep := copySnap()
	wrongStep.Step++
	if err := fresh().Restore(wrongStep); err == nil {
		t.Fatal("mismatched step restored")
	}

	wrongZones := copySnap()
	wrongZones.Zones = append([]string(nil), wrongZones.Zones...)
	wrongZones.Zones[0] = "nowhere-1x"
	if err := fresh().Restore(wrongZones); err == nil {
		t.Fatal("mismatched zones restored")
	}

	used := fresh()
	if _, err := used.Advance(set.PricesAt(set.Start())); err != nil {
		t.Fatal(err)
	}
	if err := used.Restore(copySnap()); err == nil {
		t.Fatal("restore onto a ticked evaluator succeeded")
	}
}

// TestStreamSnapshotEmpty pins the pre-first-tick snapshot: restoring
// it is a no-op, and the restored evaluator's first tick matches a
// fresh evaluator's.
func TestStreamSnapshotEmpty(t *testing.T) {
	set := paperRegimes()["moderate/day1"]
	cfg := streamConfigFor(set)
	cfg.CrossCheckEvery = -1
	a, err := NewStreamEvaluator(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	if len(snap.Rows) != 0 || snap.Ticks != 0 || snap.Generation != 0 {
		t.Fatalf("fresh snapshot not empty: %+v", snap)
	}
	b, err := NewStreamEvaluator(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(snap); err != nil {
		t.Fatalf("empty restore: %v", err)
	}
	row := set.PricesAt(set.Start())
	ua, err := a.Advance(row)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := b.Advance(row)
	if err != nil {
		t.Fatal(err)
	}
	if ua.Generation != ub.Generation || !plansEqual(ua.Plans, ub.Plans) {
		t.Fatal("empty-restored evaluator diverges from a fresh one")
	}
}
