package quote

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/core"
)

// Crash recovery for the streaming service: the Streamer checkpoints
// its feed position (sequence number, last row, retained backlog) and
// every resident shape's evaluator snapshot into a pluggable store. A
// restarted process restores the checkpoint and then needs only the
// feed ticks published after it — the catch-up is (current seq −
// snapshot seq) rows, never the full window, and the per-shape digest
// check inherited from core.StreamSnapshot proves the resumed plan
// tables and generations equal the crashed ones bit for bit. Because a
// shape's generation is a deterministic function of the tick stream,
// a resumed backend's generations stay comparable with its never-
// crashed peers — which is what lets SSE clients resume across
// failover on Last-Event-ID alone.

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
	// State is the shape's evaluator checkpoint.
	State *core.StreamSnapshot `json:"state"`
}

// StreamerSnapshot is one Streamer checkpoint: the feed position plus
// every resident shape's evaluator state, JSON-serialisable. Shapes are
// ordered by canonical key so equal states serialize to equal bytes.
type StreamerSnapshot struct {
	// Seq is the last feed sequence number applied.
	Seq uint64 `json:"seq"`
	// Zones, Start, Step mirror the streamer's feed geometry.
	Zones []string `json:"zones"`
	Start int64    `json:"start"`
	Step  int64    `json:"step"`
	// Dropped is how many backlog rows trimming has discarded, ever —
	// it anchors restored evaluator windows to absolute time.
	Dropped uint64 `json:"dropped"`
	// LastRow is the last applied price row (gap fills repeat it).
	LastRow []float64 `json:"last_row,omitempty"`
	// Backlog is the retained catch-up window for late subscribers.
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
		Seq:     st.seq,
		Zones:   append([]string(nil), st.Zones...),
		Start:   st.Start,
		Step:    st.Step,
		Dropped: st.dropped,
		LastRow: append([]float64(nil), st.lastRow...),
		Backlog: make([][]float64, len(st.backlog)),
	}
	for i, row := range st.backlog {
		snap.Backlog[i] = append([]float64(nil), row...)
	}
	for _, sh := range st.shapes {
		snap.Shapes = append(snap.Shapes, ShapeSnapshot{Req: sh.req, State: sh.se.Snapshot()})
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
// geometry matches the snapshot's. Every shape's evaluator is restored
// through its digest-verified core Restore, so a corrupt checkpoint is
// refused whole rather than partially applied. The restored streamer
// reports Stale until the feed resumes, and expects the next Ingest at
// sequence Seq()+1 — earlier sequences drop as duplicates, later ones
// gap-fill, exactly as for a streamer that never crashed.
func (st *Streamer) Restore(snap *StreamerSnapshot) error {
	st.init()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.seq != 0 || len(st.shapes) != 0 || len(st.backlog) != 0 {
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
	// Restore shapes first: a failure must leave the streamer fresh.
	st.dropped = snap.Dropped // streamConfigLocked anchors windows on it
	restored := make(map[string]*streamShape, len(snap.Shapes))
	for i := range snap.Shapes {
		ss := &snap.Shapes[i]
		req := ss.Req
		req.Normalize()
		if err := req.validateStream(); err != nil {
			st.dropped = 0
			return fmt.Errorf("quote: snapshot shape %d: %w", i, err)
		}
		se, err := core.NewStreamEvaluator(st.Eval, st.streamConfigLocked(req))
		if err == nil {
			err = se.Restore(ss.State)
		}
		if err != nil {
			st.dropped = 0
			return fmt.Errorf("quote: snapshot shape %q: %w", req.Key(), err)
		}
		sh := &streamShape{req: req, se: se, subs: make(map[*StreamSub]struct{})}
		if gen := se.Generation(); gen > 0 {
			upd := core.StreamUpdate{
				Generation: gen,
				Tick:       ss.State.Ticks,
				Steps:      se.Steps(),
				At:         ss.State.Start + (int64(len(ss.State.Rows))-1)*snap.Step,
				Plans:      se.Plans(),
			}
			sh.last = sh.event(&upd, false)
		}
		restored[req.Key()] = sh
	}
	st.seq = snap.Seq
	st.lastRow = append([]float64(nil), snap.LastRow...)
	st.backlog = make([][]float64, len(snap.Backlog))
	for i, row := range snap.Backlog {
		st.backlog[i] = append([]float64(nil), row...)
	}
	for k, sh := range restored {
		st.shapes[k] = sh
	}
	st.Metrics.Restores.Inc()
	return nil
}

// MemStore is an in-memory SnapshotStore: it models durable storage
// that survives a backend restart (the chaos fleet hands the same
// MemStore to the restarted instance). The checkpoint is held as JSON
// bytes so Save/Load round-trip exactly like a disk store and never
// alias live streamer state.
type MemStore struct {
	mu  sync.Mutex
	raw []byte
	// Saves counts checkpoints written, for harness assertions.
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

// Saves returns how many checkpoints have been written.
func (m *MemStore) Saves() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
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
