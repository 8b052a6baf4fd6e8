package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/trace"
)

// Crash recovery for streaming evaluation: a stream shape's externally
// meaningful state is a pure function of (request shape, retained
// window, tick count, generation) — the resident permutation
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

// Snapshot captures the evaluator's resumable state.
func (se *StreamEvaluator) Snapshot() *StreamSnapshot { return se.s.Snapshot() }

// Restore rebuilds the evaluator's state from a snapshot. It is only
// valid on a fresh evaluator (no ticks ingested) whose config matches
// the snapshot's geometry; the plan table is re-derived from the
// restored window and verified against the snapshot digest, so a
// corrupt or mismatched snapshot is refused rather than silently
// resumed. After a successful Restore the evaluator continues exactly
// where the snapshot left off: the next Advance produces tick
// snap.Ticks+1, and the generation only moves when the table changes.
func (se *StreamEvaluator) Restore(snap *StreamSnapshot) error {
	if err := se.g.Restore(snap); err != nil {
		return err
	}
	return se.s.Restore(snap)
}

// Snapshot captures one shape's resumable state: its grid's window and
// tick count with the shape's own generation and table digest. The
// snapshot is independent of the resident structures.
func (s *StreamScorer) Snapshot() *StreamSnapshot {
	g := s.g
	hist := g.tape.Set()
	n := g.tape.Len()
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = hist.PricesAt(g.tape.Start() + int64(i)*g.tape.Step())
	}
	snap := &StreamSnapshot{
		Zones:      append([]string(nil), g.cfg.Zones...),
		Start:      g.tape.Start(),
		Step:       g.tape.Step(),
		Ticks:      g.stats.Ticks,
		Generation: s.gen,
		Rows:       rows,
	}
	snap.StateDigest = snap.digest(s.plans)
	return snap
}

// Restore rebuilds the grid's window and tick count from a shape
// snapshot. It is only valid on a fresh grid (no ticks ingested) whose
// config matches the snapshot's geometry. The window's estimates are
// re-derived from scratch; the resident structures rebuild lazily on
// the next tick. Each attached scorer then restores its own generation
// through StreamScorer.Restore, which verifies the digest.
func (g *StreamGrid) Restore(snap *StreamSnapshot) error {
	if snap == nil {
		return fmt.Errorf("core: nil stream snapshot")
	}
	if g.stats.Ticks != 0 || g.tape.Len() != 0 {
		return fmt.Errorf("core: Restore on an evaluator that has already ingested %d ticks", g.stats.Ticks)
	}
	if len(snap.Zones) != len(g.cfg.Zones) {
		return fmt.Errorf("core: snapshot has %d zones, evaluator %d", len(snap.Zones), len(g.cfg.Zones))
	}
	for i, z := range snap.Zones {
		if z != g.cfg.Zones[i] {
			return fmt.Errorf("core: snapshot zone %d is %q, evaluator has %q", i, z, g.cfg.Zones[i])
		}
	}
	if snap.Step != g.cfg.Step {
		return fmt.Errorf("core: snapshot step %d, evaluator %d", snap.Step, g.cfg.Step)
	}
	if uint64(len(snap.Rows)) > snap.Ticks {
		return fmt.Errorf("core: snapshot retains %d rows but counts only %d ticks", len(snap.Rows), snap.Ticks)
	}
	if len(snap.Rows) == 0 {
		// An empty snapshot (taken before the first tick) restores to
		// the fresh state.
		return nil
	}
	tape, err := replayTape(snap)
	if err != nil {
		return err
	}
	g.tape = tape
	g.slots, g.ests = g.estimate(tape.Set())
	g.stats.Ticks = snap.Ticks
	g.dirty = true // resident structures rebuild lazily on the next tick
	g.stats.Rebuilds++
	return nil
}

// Restore adopts a shape snapshot's generation and table on a scorer
// whose grid was restored from the same window: the snapshot must carry
// the grid's rows, start and tick count exactly, and the table the grid
// scores for this shape must hash to the snapshot's digest. By the
// streaming contract that table is bit-identical to Rank over the same
// window, so the check proves the resumed state equals the crashed one.
func (s *StreamScorer) Restore(snap *StreamSnapshot) error {
	if snap == nil {
		return fmt.Errorf("core: nil stream snapshot")
	}
	g := s.g
	if len(snap.Rows) == 0 {
		if snap.Generation != 0 {
			return fmt.Errorf("core: empty snapshot carries generation %d", snap.Generation)
		}
		if g.tape.Len() != 0 {
			return fmt.Errorf("core: empty snapshot on a grid holding %d rows", g.tape.Len())
		}
		return nil
	}
	if !g.holds(snap) {
		return fmt.Errorf("core: snapshot window (start %d, %d rows, tick %d) differs from its grid's (start %d, %d rows, tick %d)",
			snap.Start, len(snap.Rows), snap.Ticks, g.tape.Start(), g.tape.Len(), g.stats.Ticks)
	}
	hist := g.tape.Set()
	req := s.request(hist)
	plans := scorePlans(&req, s.odRate, g.slots, g.ests)
	if got := snap.digest(plans); got != snap.StateDigest {
		return fmt.Errorf("core: snapshot digest mismatch: restored table hashes to %s, snapshot says %s", got, snap.StateDigest)
	}
	s.gen = snap.Generation
	s.plans = plans
	s.upd = StreamUpdate{
		Generation: s.gen,
		Tick:       g.stats.Ticks,
		Steps:      g.tape.Len(),
		At:         g.tape.End() - g.cfg.Step,
		Plans:      plans,
	}
	return nil
}

// holds reports whether the grid's window is exactly the snapshot's:
// same geometry, start, tick count and rows, bit for bit.
func (g *StreamGrid) holds(snap *StreamSnapshot) bool {
	if snap.Step != g.cfg.Step || len(snap.Zones) != len(g.cfg.Zones) ||
		snap.Start != g.tape.Start() || snap.Ticks != g.stats.Ticks || len(snap.Rows) != g.tape.Len() {
		return false
	}
	for i, z := range snap.Zones {
		if z != g.cfg.Zones[i] {
			return false
		}
	}
	hist := g.tape.Set()
	for i, row := range snap.Rows {
		got := hist.PricesAt(g.tape.Start() + int64(i)*g.tape.Step())
		if len(row) != len(got) {
			return false
		}
		for k := range row {
			if !f64eq(row[k], got[k]) {
				return false
			}
		}
	}
	return true
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
