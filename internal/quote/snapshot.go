package quote

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
)

// Crash recovery for the streaming service: the Streamer checkpoints
// its feed position (sequence number and the window, once) and every
// resident shape's snapshot — the tick, its generation and a digest of
// its table over the window — into a pluggable store. A restarted
// process restores the checkpoint and then needs only the feed ticks
// published after it — the catch-up is (current seq − snapshot seq)
// rows, never the full window, and the per-shape digest check of
// core.StreamScorer.Restore proves the resumed plan tables and
// generations equal the crashed ones bit for bit. A resumed backend's
// generations therefore continue where its checkpoint left them, which
// keeps them comparable with its never-crashed peers — what lets SSE
// clients resume across failover on Last-Event-ID alone.

// SnapshotStore persists streamer checkpoints. Save replaces the
// previous checkpoint atomically; Load returns the latest one, or
// (nil, nil) when none has been written.
type SnapshotStore interface {
	Save(*StreamerSnapshot) error
	Load() (*StreamerSnapshot, error)
}

// ShapeSnapshot is one resident request shape inside a checkpoint.
type ShapeSnapshot struct {
	// Req is the subscription shape, already normalized, under the
	// request's wire field names.
	Req Request `json:"req"`
	// State is what the shape owns of the checkpoint: the feed tick,
	// its generation and its table's digest over the checkpoint's
	// window.
	State *core.StreamSnapshot `json:"state"`
}

// StreamerSnapshot is one Streamer checkpoint: the feed position plus
// every resident shape's state, JSON-serialisable. Shapes are
// ordered by canonical key so equal states serialize to equal bytes.
type StreamerSnapshot struct {
	// Seq is the last feed sequence number applied.
	Seq uint64 `json:"seq"`
	// Zones, Start, Step mirror the streamer's feed geometry.
	Zones []string `json:"zones"`
	Start int64    `json:"start"`
	Step  int64    `json:"step"`
	// Dropped is how many sequence numbers precede the window's first
	// row (those before the feed's first tick, those a restart skipped
	// and those trimming has discarded) — it anchors the restored
	// window to absolute time.
	Dropped uint64 `json:"dropped"`
	// Backlog is the feed window, one price row per sequence number
	// from Dropped+1 to Seq: the one copy every shape's digest covers.
	Backlog [][]float64 `json:"backlog,omitempty"`
	// Shapes are the resident shapes, ordered by Request.Key.
	Shapes []ShapeSnapshot `json:"shapes,omitempty"`
}

// Snapshot captures the streamer's resumable state under its lock.
func (st *Streamer) Snapshot() *StreamerSnapshot {
	st.init()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.snapshotLocked()
}

func (st *Streamer) snapshotLocked() *StreamerSnapshot {
	snap := &StreamerSnapshot{
		Seq:   st.seq,
		Zones: append([]string(nil), st.Zones...),
		Start: st.Start,
		Step:  st.Step,
	}
	if st.tape == nil {
		return snap
	}
	win := st.tape.Set()
	snap.Dropped = uint64((win.Start() - st.Start) / st.Step)
	snap.Backlog = make([][]float64, st.tape.Len())
	for i := range snap.Backlog {
		snap.Backlog[i] = win.PricesAt(win.Start() + int64(i)*st.Step)
	}
	for _, sh := range st.shapes {
		snap.Shapes = append(snap.Shapes, ShapeSnapshot{Req: sh.req, State: sh.sc.Snapshot(win)})
	}
	sort.Slice(snap.Shapes, func(i, j int) bool {
		return snap.Shapes[i].Req.Key() < snap.Shapes[j].Req.Key()
	})
	return snap
}

// checkpointLocked writes one checkpoint through the configured store.
// The write happens under the streamer lock — Ingest is the only
// caller, so a checkpoint and a tick never interleave; stores should
// keep Save cheap (a JSON encode plus an atomic rename).
func (st *Streamer) checkpointLocked() {
	if err := st.Store.Save(st.snapshotLocked()); err != nil {
		st.Metrics.CheckpointErrors.Inc()
		return
	}
	st.Metrics.Checkpoints.Inc()
}

// Seq returns the last feed sequence number the streamer applied (0
// before the first tick) — a restarted feed replays from Seq()+1.
func (st *Streamer) Seq() uint64 {
	st.init()
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seq
}

// Restore rebuilds the streamer from a checkpoint. It is only valid on
// a fresh streamer (no ticks ingested, no shapes resident) whose feed
// geometry matches the snapshot's. The window is restored once, its
// rows re-validated; each grid re-derives its estimates over it, and
// every shape is restored through its digest-verified core Restore at
// the checkpoint's tick, so a corrupt or inconsistent checkpoint is
// refused whole rather than partially applied. The tick count is the
// shapes' (they carry one tick); a checkpoint without shapes restores
// as a streamer whose feed began at its window's first row. The
// restored streamer reports Stale until the feed resumes, and expects
// the next Ingest at sequence Seq()+1 — earlier sequences drop as
// duplicates, later ones gap-fill, exactly as for a streamer that
// never crashed.
func (st *Streamer) Restore(snap *StreamerSnapshot) error {
	st.init()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.tape == nil {
		return fmt.Errorf("quote: Restore on a streamer without zones")
	}
	if st.seq != 0 || len(st.shapes) != 0 || st.tape.Len() != 0 {
		return fmt.Errorf("quote: Restore on a streamer that has already ingested ticks")
	}
	if len(snap.Zones) != len(st.Zones) {
		return fmt.Errorf("quote: snapshot has %d zones, streamer %d", len(snap.Zones), len(st.Zones))
	}
	for i, z := range snap.Zones {
		if z != st.Zones[i] {
			return fmt.Errorf("quote: snapshot zone %d is %q, streamer has %q", i, z, st.Zones[i])
		}
	}
	if snap.Start != st.Start || snap.Step != st.Step {
		return fmt.Errorf("quote: snapshot geometry (start %d step %d) does not match streamer (start %d step %d)",
			snap.Start, snap.Step, st.Start, st.Step)
	}
	n := uint64(len(snap.Backlog))
	if snap.Dropped > snap.Seq || snap.Seq-snap.Dropped != n || (n == 0) != (snap.Seq == 0) {
		return fmt.Errorf("quote: snapshot window of %d rows after %d dropped does not end at seq %d", n, snap.Dropped, snap.Seq)
	}
	// Restore into locals first: a failure must leave the streamer fresh.
	tape, err := trace.NewTape(st.Zones, st.Start+int64(snap.Dropped)*st.Step, st.Step)
	if err != nil {
		return err
	}
	for i, row := range snap.Backlog {
		if err := tape.Append(row); err != nil {
			return fmt.Errorf("quote: snapshot row %d: %w", i, err)
		}
	}
	ticks := n
	if len(snap.Shapes) > 0 && snap.Shapes[0].State != nil {
		ticks = snap.Shapes[0].State.Ticks
	}
	if ticks < n {
		return fmt.Errorf("quote: snapshot tick %d is below its %d-row window", ticks, n)
	}
	shapes, grids, err := st.restoreShapesLocked(snap.Shapes, tape.Set(), ticks)
	if err != nil {
		return err
	}
	st.tape, st.ticks, st.seq = tape, ticks, snap.Seq
	st.shapes, st.grids = shapes, grids
	st.Metrics.Restores.Inc()
	return nil
}

// restoreShapesLocked rebuilds the checkpoint's shapes and their grids
// over the restored window, whose last row is feed tick ticks, without
// touching the streamer's own.
func (st *Streamer) restoreShapesLocked(snaps []ShapeSnapshot, win *trace.Set, ticks uint64) (map[string]*streamShape, map[int]*streamGrid, error) {
	shapes := make(map[string]*streamShape, len(snaps))
	grids := make(map[int]*streamGrid)
	for i := range snaps {
		ss := &snaps[i]
		req := ss.Req
		req.Normalize()
		if err := req.validateStream(); err != nil {
			return nil, nil, fmt.Errorf("quote: snapshot shape %d: %w", i, err)
		}
		if shapes[req.Key()] != nil {
			return nil, nil, fmt.Errorf("quote: snapshot shape %q appears twice", req.Key())
		}
		sh, fresh, err := st.attachLocked(req, grids)
		if err == nil && fresh {
			err = sh.grid.g.Restore(win, ticks)
		}
		if err == nil {
			err = sh.sc.Restore(win, ss.State)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("quote: snapshot shape %q: %w", req.Key(), err)
		}
		if upd := sh.sc.Update(); upd.Generation > 0 {
			sh.last = sh.event(&upd, false)
		}
		shapes[req.Key()] = sh
	}
	return shapes, grids, nil
}

// MemStore is an in-memory SnapshotStore: it models durable storage
// that survives a backend restart (the chaos fleet hands the same
// MemStore to the restarted instance). The checkpoint is held as JSON
// bytes so Save/Load round-trip exactly like a disk store and never
// alias live streamer state.
type MemStore struct {
	mu  sync.Mutex
	raw []byte
	// saves counts checkpoints written, for the tests.
	saves int
}

// Save serializes and retains the checkpoint.
func (m *MemStore) Save(snap *StreamerSnapshot) error {
	raw, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.raw = raw
	m.saves++
	return nil
}

// Load returns the latest checkpoint, or (nil, nil) before the first
// Save.
func (m *MemStore) Load() (*StreamerSnapshot, error) {
	m.mu.Lock()
	raw := m.raw
	m.mu.Unlock()
	if raw == nil {
		return nil, nil
	}
	var snap StreamerSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// FileStore persists checkpoints as JSON at Path, replacing the
// previous one atomically (write to a temp file in the same directory,
// then rename), so a crash mid-write leaves the prior checkpoint
// intact.
type FileStore struct {
	Path string
}

// Save atomically replaces the checkpoint file.
func (f *FileStore) Save(snap *StreamerSnapshot) error {
	raw, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	tmp := f.Path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.Path)
}

// Load reads the checkpoint file; a missing file is (nil, nil).
func (f *FileStore) Load() (*StreamerSnapshot, error) {
	raw, err := os.ReadFile(f.Path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var snap StreamerSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("quote: snapshot file %s: %w", f.Path, err)
	}
	return &snap, nil
}
