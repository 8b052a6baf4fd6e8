package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/trace"
)

// Crash recovery for streaming evaluation: a stream shape's externally
// meaningful state is a pure function of (request shape, window, feed
// tick, generation) — the resident permutation structures are a cache
// rebuilt from the window on demand. The window is not the shape's, nor
// its grid's: whoever feeds the grids persists it once (a
// quote.Streamer checkpoints its one tape). A shape's snapshot
// therefore keeps only what the shape owns — the tick, its generation
// and a digest binding them and the window to the plan table they
// produce — and Restore proves the resumed shape equals the crashed one
// by re-deriving the table from the restored window and checking it
// against the digest, bit for bit. A restarted backend then needs to
// replay only the ticks that arrived after the snapshot (the catch-up),
// never the full history.

// StreamSnapshot is one shape's checkpoint: the feed tick and the
// shape's generation at snapshot time, and a digest binding them, the
// window and the plan table they produce. It is JSON-serialisable so
// snapshot stores can persist it to disk.
type StreamSnapshot struct {
	// Ticks is the feed tick of the window's last row at snapshot time.
	Ticks uint64 `json:"ticks"`
	// Generation is the plan-table generation at snapshot time.
	Generation uint64 `json:"generation"`
	// StateDigest fingerprints the window (geometry and rows), the
	// tick, the generation and the plan table they must reproduce;
	// Restore refuses a snapshot whose restored table does not match.
	StateDigest string `json:"state_digest"`
}

// Snapshot captures one shape's resumable state over win, the window
// its grid last stepped to. The snapshot is independent of the
// resident structures.
func (s *StreamScorer) Snapshot(win *trace.Set) *StreamSnapshot {
	snap := &StreamSnapshot{Ticks: s.g.stats.Ticks, Generation: s.gen}
	snap.StateDigest = snap.digest(win, s.plans)
	return snap
}

// Restore re-derives the grid's estimates from scratch over win, the
// restored feed window whose last row is feed tick tick. It is only
// valid on a fresh grid (never stepped); an empty window leaves it
// fresh. The resident structures rebuild lazily on the next Advance,
// and each attached scorer then restores its own generation through
// StreamScorer.Restore, which verifies the digest.
func (g *StreamGrid) Restore(win *trace.Set, tick uint64) error {
	if g.steps != 0 || g.stats.Ticks != 0 {
		return fmt.Errorf("core: Restore on a grid that has already stepped to tick %d", g.stats.Ticks)
	}
	n, err := g.checkWindow(win)
	if err != nil || n == 0 {
		return err
	}
	g.slots, g.ests = g.estimate(win)
	g.start, g.steps = win.Start(), n
	g.stats.Ticks = tick
	g.dirty = true // resident structures rebuild lazily on the next tick
	g.stats.Rebuilds++
	return nil
}

// Restore adopts a shape snapshot's generation on a scorer whose grid
// was restored over win: the snapshot's tick must be the grid's, and
// the table the grid scores for this shape must hash, with win, to the
// snapshot's digest. By the streaming contract that table is
// bit-identical to Rank over the same window, so the check proves the
// resumed state equals the crashed one.
func (s *StreamScorer) Restore(win *trace.Set, snap *StreamSnapshot) error {
	if snap == nil {
		return fmt.Errorf("core: nil stream snapshot")
	}
	g := s.g
	if g.steps == 0 {
		if snap.Generation != 0 {
			return fmt.Errorf("core: snapshot of an empty window carries generation %d", snap.Generation)
		}
		return nil
	}
	if snap.Ticks != g.stats.Ticks {
		return fmt.Errorf("core: snapshot at tick %d, its grid at tick %d", snap.Ticks, g.stats.Ticks)
	}
	plans := s.scored()
	if got := snap.digest(win, plans); got != snap.StateDigest {
		return fmt.Errorf("core: snapshot digest mismatch: restored table hashes to %s, snapshot says %s", got, snap.StateDigest)
	}
	s.gen = snap.Generation
	s.plans = plans
	s.upd = StreamUpdate{
		Generation: s.gen,
		Tick:       g.stats.Ticks,
		Steps:      g.steps,
		At:         g.at(),
		Plans:      plans,
	}
	return nil
}

// digest fingerprints the window, the snapshot's counters and the plan
// table they must reproduce, FNV-64a over the raw float bits so the
// check is exact, not approximate. The window enters as zone names,
// start, step and its rows in time order.
func (snap *StreamSnapshot) digest(win *trace.Set, plans []Plan) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range win.Series {
		h.Write([]byte(s.Zone))
		h.Write([]byte{0})
	}
	put(uint64(win.Start()))
	put(uint64(win.Step()))
	put(snap.Ticks)
	put(snap.Generation)
	for i := range win.Series[0].Prices {
		for _, s := range win.Series {
			put(math.Float64bits(s.Prices[i]))
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
