package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/trace"
)

// Crash recovery for streaming evaluation: a StreamEvaluator's
// externally meaningful state is a pure function of (request shape,
// retained window, tick count, generation) — the resident permutation
// structures are a cache rebuilt from the tape on demand. A snapshot
// therefore persists exactly that function's inputs plus a digest of
// its output, and Restore proves the resumed evaluator equals the
// crashed one by re-deriving the plan table from the restored window
// and checking it against the digest, bit for bit. A restarted backend
// then needs to replay only the ticks that arrived after the snapshot
// (the catch-up), never the full history.

// StreamSnapshot is a StreamEvaluator checkpoint: the feed geometry,
// the retained price window, the tick/generation counters and a digest
// binding them to the plan table they produce. It is JSON-serialisable
// so snapshot stores can persist it to disk.
type StreamSnapshot struct {
	// Zones is the feed geometry, in column order.
	Zones []string `json:"zones"`
	// Start is the absolute time of the retained window's first sample
	// (compaction advances it past the config's Start).
	Start int64 `json:"start"`
	// Step is the tick interval in seconds.
	Step int64 `json:"step"`
	// Ticks is the evaluator's ingested-tick count at snapshot time.
	Ticks uint64 `json:"ticks"`
	// Generation is the plan-table generation at snapshot time.
	Generation uint64 `json:"generation"`
	// Rows is the retained window, one price row per tick.
	Rows [][]float64 `json:"rows"`
	// StateDigest fingerprints the snapshot (geometry, counters, rows)
	// and the plan table it must reproduce; Restore refuses a snapshot
	// whose restored table does not match.
	StateDigest string `json:"state_digest"`
}

// Snapshot captures the evaluator's resumable state. The snapshot is
// independent of the resident structures, so it is valid whether or
// not the evaluator has degraded to fallback ranking.
func (se *StreamEvaluator) Snapshot() *StreamSnapshot {
	hist := se.tape.Set()
	n := se.tape.Len()
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = hist.PricesAt(se.tape.Start() + int64(i)*se.tape.Step())
	}
	snap := &StreamSnapshot{
		Zones:      append([]string(nil), se.cfg.Zones...),
		Start:      se.tape.Start(),
		Step:       se.tape.Step(),
		Ticks:      se.stats.Ticks,
		Generation: se.gen,
		Rows:       rows,
	}
	snap.StateDigest = snap.digest(se.plans)
	return snap
}

// Restore rebuilds the evaluator's state from a snapshot. It is only
// valid on a fresh evaluator (no ticks ingested) whose config matches
// the snapshot's geometry; the plan table is re-derived from the
// restored window and verified against the snapshot digest, so a
// corrupt or mismatched snapshot is refused rather than silently
// resumed. After a successful Restore the evaluator continues exactly
// where the snapshot left off: the next Advance produces tick
// snap.Ticks+1, and the generation only moves when the table changes.
func (se *StreamEvaluator) Restore(snap *StreamSnapshot) error {
	if snap == nil {
		return fmt.Errorf("core: nil stream snapshot")
	}
	if se.stats.Ticks != 0 || se.tape.Len() != 0 {
		return fmt.Errorf("core: Restore on an evaluator that has already ingested %d ticks", se.stats.Ticks)
	}
	if len(snap.Zones) != len(se.cfg.Zones) {
		return fmt.Errorf("core: snapshot has %d zones, evaluator %d", len(snap.Zones), len(se.cfg.Zones))
	}
	for i, z := range snap.Zones {
		if z != se.cfg.Zones[i] {
			return fmt.Errorf("core: snapshot zone %d is %q, evaluator has %q", i, z, se.cfg.Zones[i])
		}
	}
	if snap.Step != se.cfg.Step {
		return fmt.Errorf("core: snapshot step %d, evaluator %d", snap.Step, se.cfg.Step)
	}
	if uint64(len(snap.Rows)) > snap.Ticks {
		return fmt.Errorf("core: snapshot retains %d rows but counts only %d ticks", len(snap.Rows), snap.Ticks)
	}
	if len(snap.Rows) == 0 {
		// An empty snapshot (taken before the first tick) restores to
		// the fresh state.
		if snap.Generation != 0 {
			return fmt.Errorf("core: empty snapshot carries generation %d", snap.Generation)
		}
		return nil
	}
	tape, err := replayTape(snap)
	if err != nil {
		return err
	}
	// Re-derive the plan table the snapshot's window must produce. By
	// the streaming contract the incremental table is bit-identical to
	// Rank over the same window, so the digest check below proves the
	// resumed state equals the crashed one.
	se.tape = tape
	hist := se.tape.Set()
	plans, err := se.ev.Rank(se.request(hist))
	if err != nil {
		return fmt.Errorf("core: restoring plan table: %w", err)
	}
	if got := snap.digest(plans); got != snap.StateDigest {
		return fmt.Errorf("core: snapshot digest mismatch: restored table hashes to %s, snapshot says %s", got, snap.StateDigest)
	}
	se.stats.Ticks = snap.Ticks
	se.gen = snap.Generation
	se.plans = plans
	se.dirty = true // resident structures rebuild lazily on the next tick
	se.stats.Rebuilds++
	return nil
}

// replayTape reconstructs the snapshot's retained window as a tape,
// re-validating every row.
func replayTape(snap *StreamSnapshot) (*trace.Tape, error) {
	t, err := trace.NewTape(snap.Zones, snap.Start, snap.Step)
	if err != nil {
		return nil, err
	}
	for i, row := range snap.Rows {
		if err := t.Append(row); err != nil {
			return nil, fmt.Errorf("core: snapshot row %d: %w", i, err)
		}
	}
	return t, nil
}

// digest fingerprints the snapshot's inputs and the plan table they
// must reproduce, FNV-64a over the raw float bits so the check is
// exact, not approximate.
func (snap *StreamSnapshot) digest(plans []Plan) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, z := range snap.Zones {
		h.Write([]byte(z))
		h.Write([]byte{0})
	}
	put(uint64(snap.Start))
	put(uint64(snap.Step))
	put(snap.Ticks)
	put(snap.Generation)
	for _, row := range snap.Rows {
		for _, p := range row {
			put(math.Float64bits(p))
		}
	}
	put(uint64(len(plans)))
	for i := range plans {
		p := &plans[i]
		put(math.Float64bits(p.Bid))
		h.Write([]byte(p.Policy))
		h.Write([]byte{0})
		for _, z := range p.Zones {
			h.Write([]byte(z))
			h.Write([]byte{0})
		}
		put(math.Float64bits(p.PredictedCost))
		put(math.Float64bits(p.ProgressRate))
		put(math.Float64bits(p.CostRate))
		put(uint64(p.PredictedFinish))
		put(uint64(p.DeadlineMargin))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
