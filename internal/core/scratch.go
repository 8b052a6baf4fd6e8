package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/trace"
)

// One shared pool of batched sweep scratch. A one-shot sweep (Rank's
// estimate step, MeasureAll, a stream grid's cross-check) takes a
// scratch and re-arms it over its window. An Adaptive decision takes
// one too, and when the scratch still holds the window of its own run's
// previous decision — the pool hands a goroutine back what it last put
// — it slides that window instead: consecutive decisions share all but
// the samples between them, so the decision appends those and drops
// what fell out of its span, and the availability indexes and chain
// fitters slide with it (batchState.advance). A scratch holding another
// run's window, or none, is re-armed from the decision's own window, so
// which scratch a decision gets changes its cost, never its estimates.
// Results never outlive a run: each run has its own token (Begin), and
// its replays and memos restart at the window start every decision.
//
// The pool bounds the resident windows: one per decision in flight,
// plus what the pool keeps until the collector empties it. Nothing a
// strategy holds pins a window, so a dropped Adaptive leaves none
// behind, and a new run reuses the buffers of the last one on its
// goroutine instead of reallocating them.
var scratchPool sync.Pool

// runSeq numbers Adaptive runs; 0 marks a scratch holding no run's
// window.
var runSeq atomic.Uint64

// sweepScratch is one pooled scratch: the batched state, the resident
// window of the Adaptive run that last decided on it, the slot tables
// of the last run grid it served, and a decision's buffers.
type sweepScratch struct {
	b batchState

	// The resident window: run's samples at times from, from+step, …,
	// one private price column per zone and beside it the samples'
	// chain states, read from the env's (Env.States), viewed as set.
	// bad is the time of the newest sample read that is not a price
	// (trace.ValidPrice), and valid records that the window holds no
	// such sample, so b may index it.
	run    uint64
	from   int64
	step   int64
	bad    int64
	valid  bool
	cols   [][]float64
	ids    [][]int32
	series []trace.Series
	ptrs   []*trace.Series
	set    trace.Set

	// The slot tables of the last run grid the scratch served, one per
	// zone order met (slotsFor): a table depends only on the order and
	// the grid, so a later run over an equal grid reuses them.
	grid   gridKey
	tables []slotTable

	order []int
	specs []sim.RunSpec
	out   []estimate
	costs []float64
}

// takeScratch takes a scratch from the shared pool.
func takeScratch() *sweepScratch {
	if s, ok := scratchPool.Get().(*sweepScratch); ok {
		return s
	}
	return &sweepScratch{}
}

// release returns the scratch to the pool, dropping the decision's
// policy instances.
func (s *sweepScratch) release() {
	clear(s.specs)
	scratchPool.Put(s)
}

// arm re-arms the batched state over hist for a one-shot sweep; the
// scratch no longer holds a run's window.
func (s *sweepScratch) arm(hist *trace.Set, tc, tr int64) {
	s.run, s.valid = 0, false
	s.b.reset(hist, tc, tr)
}

// slide moves the scratch to run's window at env.Now: the trailing span
// seconds of price history, the samples Env.PriceHistory reads (at
// from, from+step, … up to Now, with from = max(Now−span+step,
// HistoryStart)), labelled as PriceHistory's window is: its last sample
// at Now, the rest a step apart. When the scratch holds the run's
// previous window on the same sample grid and that window reaches the
// new one, it drops the samples that left the span, reads through
// env.Price only those since, with their states from the env's view,
// and slides the batched state; otherwise it reads the whole window and
// re-arms. Either way the window is
// value-identical to PriceHistory's and the batched state to a fresh
// reset's, ready for a sweep. A span shorter than one step holds no
// sample, and no decision can be priced over it: slide panics.
func (s *sweepScratch) slide(env *sim.Env, run uint64, span int64) *trace.Set {
	step := env.Step
	from := max(env.Now-span+step, env.HistoryStart())
	if from > env.Now {
		panic(fmt.Sprintf("core: an estimation window of %d s holds no %d s sample", span, step))
	}
	n := int((env.Now-from)/step) + 1
	held := 0
	if len(s.cols) > 0 {
		held = len(s.cols[0])
	}
	drop := -1
	if s.run == run && s.step == step && len(s.cols) == len(env.Zones) && from >= s.from && (from-s.from)%step == 0 {
		if d := int((from - s.from) / step); d <= held && held-d <= n {
			drop = d
		}
	}
	fresh, armed := drop < 0, s.valid
	if fresh {
		s.run, s.step = run, step
		s.resize(env)
		drop = 0
	}
	for z, col := range s.cols {
		col = col[:copy(col, col[drop:])]
		ids := s.ids[z][:copy(s.ids[z], s.ids[z][drop:])]
		states, vals, base := env.States(z, from)
		for t := from + int64(len(col))*step; len(col) < n; t += step {
			p := env.Price(z, t)
			if !trace.ValidPrice(p) {
				s.bad = t
			}
			col = append(col, p)
			ids = append(ids, states[min(int((t-base)/step), len(states)-1)])
		}
		s.cols[z], s.ids[z] = col, ids
		s.series[z].Epoch = env.Now - int64(n-1)*step
		s.series[z].Prices = col
		s.series[z].SetStates(ids, vals)
	}
	s.from = from
	// Only the appended samples are checked: the window is valid once
	// its newest non-price sample has slid out. The columns are aligned
	// and the step positive by construction, which is all Set.Validate
	// checks besides.
	s.valid = len(s.cols) > 0 && s.bad < from
	switch {
	case !s.valid:
		// MeasureAll's answer for a window with a non-price sample:
		// zero estimates, no replay; b keeps the last valid window.
	case fresh || !armed:
		s.b.reset(&s.set, env.CheckpointCost(), env.RestartCost())
	default:
		s.b.advance(&s.set, drop)
		s.b.rearm()
	}
	return &s.set
}

// resize gives the window one empty column and series per env zone,
// named as the run's trace names them.
func (s *sweepScratch) resize(env *sim.Env) {
	nz := len(env.Zones)
	if len(s.cols) != nz {
		s.cols = slices.Grow(s.cols[:0], nz)[:nz]
		s.ids = slices.Grow(s.ids[:0], nz)[:nz]
		s.series = make([]trace.Series, nz)
		s.ptrs = make([]*trace.Series, nz)
		for z := range s.ptrs {
			s.ptrs[z] = &s.series[z]
		}
		s.set.Series = s.ptrs
	}
	for z := range s.cols {
		s.cols[z], s.ids[z] = s.cols[z][:0], s.ids[z][:0]
		s.series[z] = trace.Series{Zone: env.Cfg.Trace.Series[z].Zone, Step: env.Step}
	}
	s.bad, s.valid = math.MinInt64, false
}

// estimateSlots is an Adaptive decision's estimate step over the window
// slide left: the run grid's slot table for the window's zone order and
// every slot's estimate, in slot order, then the incumbent's when it is
// non-nil, priced in the same sweep. The slices alias the scratch and
// the grid; a warmed decision allocates nothing.
func (s *sweepScratch) estimateSlots(ev *Evaluator, g *runGrid, incumbent *sim.RunSpec) ([]rankSlot, []estimate) {
	s.order = zoneOrder(s.order, &s.set)
	slots := s.slotsFor(g, s.order)
	s.specs = ev.slotSpecs(s.specs[:0], slots, g.cands, g.pols)
	if incumbent != nil {
		s.specs = append(s.specs, *incumbent)
	}
	if ev.DisableBatch {
		return slots, ev.MeasureAll(&s.set, s.specs, s.b.tc, s.b.tr)
	}
	s.out = slices.Grow(s.out[:0], len(s.specs))[:len(s.specs)]
	clear(s.out) // specs the sweep refuses keep the zero estimate
	sp := ev.Trace.Start("eval.sweep")
	replays := 0
	if s.valid {
		replays = s.b.sweep(s.specs, s.out)
	}
	ev.endSweep(sp, len(s.specs), replays)
	return slots, s.out
}

// runGrid is what an Adaptive run's decisions share besides the window:
// the permutation grid's resolved knobs and zone names, and one
// measurement instance per candidate (the batched engine reads only a
// policy's parameters).
type runGrid struct {
	bids     []float64
	maxZones int
	cands    []PolicySpec
	names    []string
	pols     []sim.CheckpointPolicy
}

// gridKey is what a slot table depends on besides the zone order: a
// run grid's zone names and knobs, in storage the scratch owns.
type gridKey struct {
	names    []string
	bids     []float64
	maxZones int
	cands    []PolicySpec
}

// slotTable is the slot table of one zone order, keyed by the order's
// first maxZones zones (packZones), which fix every zone set.
type slotTable struct {
	order uint64
	slots []rankSlot
}

// maxSlotTables bounds a scratch's slot tables. Three zones have six
// orders; runs over more zones that meet more orders start over.
const maxSlotTables = 16

// newRunGrid resolves an Adaptive run's grid over env's zones.
func newRunGrid(a *Adaptive, env *sim.Env) *runGrid {
	g := &runGrid{names: make([]string, len(env.Zones))}
	g.bids, g.maxZones, g.cands = resolveGrid(a.Bids, a.MaxZones, len(env.Zones), a.Candidates)
	g.pols = make([]sim.CheckpointPolicy, len(g.cands))
	for zi := range g.names {
		g.names[zi] = env.Cfg.Trace.Series[zi].Zone
	}
	return g
}

// slotsFor returns the slot table of the grid's zone order, building it
// on the order's first use since the scratch last served an equal
// grid; a grid unlike the last one starts the tables over. Tables are
// never modified once built, so a chosen spec may alias a table's zone
// set after the table is dropped.
func (s *sweepScratch) slotsFor(g *runGrid, order []int) []rankSlot {
	k := &s.grid
	if k.maxZones != g.maxZones || !slices.Equal(k.names, g.names) || !slices.Equal(k.bids, g.bids) || !slices.Equal(k.cands, g.cands) {
		clear(s.tables)
		s.tables = s.tables[:0]
		k.names = append(k.names[:0], g.names...)
		k.bids = append(k.bids[:0], g.bids...)
		k.cands = append(k.cands[:0], g.cands...)
		k.maxZones = g.maxZones
	}
	key, ok := packZones(order[:g.maxZones])
	if ok {
		for _, t := range s.tables {
			if t.order == key {
				return t.slots
			}
		}
	}
	slots := buildSlots(order, g.names, g.bids, g.maxZones, g.cands)
	if ok {
		if len(s.tables) == maxSlotTables {
			clear(s.tables)
			s.tables = s.tables[:0]
		}
		s.tables = append(s.tables, slotTable{order: key, slots: slots})
	}
	return slots
}
