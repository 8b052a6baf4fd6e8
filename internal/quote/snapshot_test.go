package quote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/leak"
)

// TestStreamerSnapshotResume is the crash-recovery contract at the
// streamer level: a replacement streamer restored from the last
// checkpoint and fed only the feed sequences after it converges to the
// same plan tables and generations as the streamer that never crashed
// — and the catch-up is checkpoint-to-now, a fraction of the window.
func TestStreamerSnapshotResume(t *testing.T) {
	defer leak.CheckT(t, leak.Baseline())
	fx := newStreamFixture()
	store := &MemStore{}
	live := fx.streamer()
	live.Store = store
	live.CheckpointEvery = 4
	sub, err := live.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const total = 10
	for i := 0; i < total; i++ {
		row := fx.row(i)
		if i == 6 {
			row = fx.reorderRow(i) // force a table change past the checkpoint
		}
		if err := live.Ingest(uint64(i+1), row); err != nil {
			t.Fatal(err)
		}
	}
	if saves(store) == 0 {
		t.Fatal("no checkpoints written")
	}
	snap, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Seq != 8 {
		t.Fatalf("last checkpoint at seq %v, want 8", snap)
	}

	// "Restart": a fresh streamer over the same store, restored, then
	// fed only the sequences after the checkpoint.
	resumed := fx.streamer()
	if err := resumed.Restore(snap); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if resumed.Seq() != snap.Seq {
		t.Fatalf("restored seq %d, want %d", resumed.Seq(), snap.Seq)
	}
	catchUp := 0
	for i := int(snap.Seq); i < total; i++ {
		row := fx.row(i)
		if i == 6 {
			row = fx.reorderRow(i)
		}
		if err := resumed.Ingest(uint64(i+1), row); err != nil {
			t.Fatal(err)
		}
		catchUp++
	}
	if catchUp >= total/2 {
		t.Fatalf("catch-up replayed %d of %d ticks — not resuming from the snapshot", catchUp, total)
	}
	if got := resumed.Metrics.Restores.Load(); got != 1 {
		t.Fatalf("Restores = %d, want 1", got)
	}

	// The resumed streamer must hold the same table under the same
	// generation as the one that never crashed, byte for byte.
	want := live.Latest(sub)
	sub2, err := resumed.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	got := sub2.Snapshot()
	if want == nil || got == nil {
		t.Fatalf("missing tables: live %v resumed %v", want, got)
	}
	if got.Generation != want.Generation {
		t.Fatalf("resumed generation %d, live %d", got.Generation, want.Generation)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("resumed table diverges:\nlive    %s\nresumed %s", wantJSON, gotJSON)
	}
}

// TestStreamerRestoreRefusals pins the restore guards: a used
// streamer, mismatched geometry, a tampered per-shape state or window,
// a window that does not end at the checkpoint's seq, shapes at
// different ticks and a checkpoint file in the old shape format must
// all be refused whole.
func TestStreamerRestoreRefusals(t *testing.T) {
	fx := newStreamFixture()
	src := fx.streamer()
	if sub, err := src.Subscribe(fx.shape); err != nil {
		t.Fatal(err)
	} else {
		defer sub.Close()
	}
	for i := 0; i < 6; i++ {
		if err := src.Ingest(uint64(i+1), fx.reorderRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := src.Snapshot()
	if len(snap.Shapes) != 1 {
		t.Fatalf("%d shapes in snapshot, want 1", len(snap.Shapes))
	}

	used := fx.streamer()
	if err := used.Ingest(1, fx.row(0)); err != nil {
		t.Fatal(err)
	}
	if err := used.Restore(snap); err == nil {
		t.Fatal("restore onto a ticked streamer succeeded")
	}

	wrongGeo := fx.streamer()
	wrongGeo.Start++
	if err := wrongGeo.Restore(snap); err == nil {
		t.Fatal("mismatched geometry restored")
	}

	tampered := fx.streamer()
	bad := *snap
	bad.Shapes = append([]ShapeSnapshot(nil), snap.Shapes...)
	state := *bad.Shapes[0].State
	state.StateDigest = "deadbeefdeadbeef"
	bad.Shapes[0].State = &state
	err := tampered.Restore(&bad)
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered shape state restored: %v", err)
	}
	// The refusal must leave the streamer fresh and usable.
	if tampered.Seq() != 0 {
		t.Fatalf("failed restore left seq %d", tampered.Seq())
	}
	if err := tampered.Ingest(1, fx.row(0)); err != nil {
		t.Fatal(err)
	}

	second := snap.Shapes[0]
	second.Req.Top++
	second.State = &core.StreamSnapshot{Ticks: snap.Shapes[0].State.Ticks + 1}
	for name, tc := range map[string]struct {
		edit func(*StreamerSnapshot)
		want string
	}{
		"window row": {func(c *StreamerSnapshot) {
			c.Backlog = append([][]float64(nil), c.Backlog...)
			c.Backlog[2] = []float64{9, 9, 9}
		}, "digest"},
		"window end":  {func(c *StreamerSnapshot) { c.Dropped++ }, "does not end at seq"},
		"shape ticks": {func(c *StreamerSnapshot) { c.Shapes = append(c.Shapes, second) }, "at tick"},
	} {
		bad := *snap
		bad.Shapes = append([]ShapeSnapshot(nil), snap.Shapes...)
		tc.edit(&bad)
		st := fx.streamer()
		if err := st.Restore(&bad); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: restored: %v", name, err)
		}
		if st.Seq() != 0 || st.Metrics.Restores.Load() != 0 || len(st.shapes) != 0 || len(st.grids) != 0 {
			t.Fatalf("%s: refused restore left seq %d, %d shapes, %d grids", name, st.Seq(), len(st.shapes), len(st.grids))
		}
	}

	// A checkpoint file whose shapes use Go field names (the format
	// before shapes were Requests, serialised under their wire names)
	// is refused whole, and the streamer starts cold.
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(snap.Shapes[0].Req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(wire, []byte(`"work_hours":4,`)) {
		t.Fatalf("shape request not under wire field names: %s", wire)
	}
	goNames := fmt.Sprintf(`{"WorkHours":4,"DeadlineHours":12,"OnDemandPrice":%g,"MaxZones":2,"Top":3}`, DefaultOnDemandPrice)
	raw = bytes.Replace(raw, wire, []byte(goNames), 1)
	fs := &FileStore{Path: filepath.Join(t.TempDir(), "quoted.snapshot")}
	if err := os.WriteFile(fs.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	cold := fx.streamer()
	if err := cold.Restore(old); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("old-format snapshot: Restore err = %v, want ErrInvalidRequest", err)
	}
	if cold.Seq() != 0 || cold.Metrics.Restores.Load() != 0 {
		t.Fatalf("refused restore left seq %d, restores %d", cold.Seq(), cold.Metrics.Restores.Load())
	}
	sub, err := cold.Subscribe(fx.shape)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Snapshot() != nil {
		t.Fatal("cold streamer holds a plan table before its first tick")
	}
	for i := 0; i < 3; i++ {
		if err := cold.Ingest(uint64(i+1), fx.reorderRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if cold.Seq() != 3 || cold.Generation(sub) == 0 {
		t.Fatalf("cold start after refusal: seq %d, generation %d", cold.Seq(), cold.Generation(sub))
	}
}

// TestFileStore covers the disk store: atomic save/load round trip and
// the missing-file contract.
func TestFileStore(t *testing.T) {
	fs := &FileStore{Path: filepath.Join(t.TempDir(), "quoted.snapshot")}
	if snap, err := fs.Load(); snap != nil || err != nil {
		t.Fatalf("missing file loaded (%v, %v), want (nil, nil)", snap, err)
	}
	fx := newStreamFixture()
	st := fx.streamer()
	st.Store = fs
	st.CheckpointEvery = 2
	if sub, err := st.Subscribe(fx.shape); err != nil {
		t.Fatal(err)
	} else {
		defer sub.Close()
	}
	for i := 0; i < 4; i++ {
		if err := st.Ingest(uint64(i+1), fx.reorderRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Metrics.Checkpoints.Load(); got != 2 {
		t.Fatalf("Checkpoints = %d, want 2", got)
	}
	snap, err := fs.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Seq != 4 || len(snap.Shapes) != 1 {
		t.Fatalf("loaded snapshot %+v", snap)
	}
	resumed := fx.streamer()
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if resumed.Seq() != 4 {
		t.Fatalf("resumed seq %d", resumed.Seq())
	}
}

// saves returns how many checkpoints m has written.
func saves(m *MemStore) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}
