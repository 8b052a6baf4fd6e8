package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/daly"
	"repro/internal/markov"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Columnar batched replay: the Adaptive scheme's permutation search
// replays every sibling (bid, zone set, policy) permutation of one
// decision point over the same price window. The machine oracle prices
// them one at a time — a full sim.Machine per permutation, with meters,
// interfaces and per-step allocations — and each Markov-Daly instance
// solves its zones' chains through its env. The batched engine in
// this file prices all of them against one shared trace.Columns view,
// one shared per-(zone, bid) availability index, and batch-local memo
// tables for the Markov fits, expected-uptime solves and Daly
// intervals, replicating the oracle's estimation semantics (static
// strategy, deadline guard disabled, fixed queuing delay, Periodic or
// Markov-Daly policies) instruction for instruction so that every
// float64 is accumulated in the same order and the results are
// bit-identical. The oracle stays authoritative: Evaluator.Measure
// still runs it, and differential and fuzz tests (which route sweeps
// back through it with Evaluator.DisableBatch) hold the two paths equal.
//
// The replayed semantics are exactly those reachable from
// estimationCfg + core.NewStatic: billing advances per Up zone in zone
// index order, state updates and compute run in spec order, checkpoint
// commits restart waiting zones before the policy reschedules, and the
// run closes with FinishEstimation's user-side meter close at the end
// of the window. Specs the oracle would reject (bad zone indices,
// non-positive bids, nil policies) and empty zone sets keep the
// oracle's zero estimate without a replay. Every entry point accepts
// only Periodic and Markov-Daly candidates (checkCandidates), so no
// other policy type reaches the engine.
//
// Memoization is value-faithful rather than structure-faithful: a
// fitted chain is a pure function of (zone, fit time, span)
// over a fixed window, an expected uptime of the chain plus (bid,
// current price), and a Daly interval of those plus the checkpoint
// cost and zone set — so sharing them across permutations through
// batch-local tables indexed by window step returns the same bits the
// oracle's per-zone solves do, regardless of which permutation
// populates an entry first. No table holds a fitted model: a chain
// memo keeps each step's fitted states, which is all a bid class reads
// of a chain, and its window fitter solves an uptime straight from its
// counts (markov.WindowFitter.Uptime).
//
// Replay classes: a sweep replays one permutation per class of its
// specs and copies that estimate to every member (sweep). Two specs
// share a class when they agree on the policy kind and the parameters
// addPerm resolves (history span, higher-order interval), on the zone
// list in spec order, and, zone by zone, on the bid's rank among the
// sorted distinct raw and bucketed (trace.Bucket) prices of that
// zone's window column. The rule is exact because the engine reads a
// bid only through BidIndex comparisons (raw price <= bid) and through
// upCount's prefix of a fitted chain's bucketed states, which is all
// the uptime solve reads of it too; bids of equal rank pass every one
// of those comparisons alike. The raw rank alone would not do: a raw
// 0.2749 buckets to 0.25, so bids 0.24 and 0.26 agree on every raw
// price but not on the chain's up states. A sweep never sorts the
// window's prices to rank its bids: it sorts its own distinct bids and
// marks, per zone, the gaps between consecutive ones that some window
// price falls into; two bids share a rank iff no marked gap separates
// them (bidClasses). Stream grids call addPerm directly and keep one
// resident permutation per slot, since a later tick can split a class.
// The class scratch is one entry per spec and one class id per zone and
// distinct bid, pooled with the rest of the batchState.
//
// Sliding: the state that outlives a replay — the availability indexes
// and the chain memos' fitters, which count over the window's chain
// states (trace.Series.States: a root's column, a tape's, or the ids
// the Adaptive scratch copies from Env.States) — slides with the
// window (advance): a stream grid's tick appends one sample, and an
// Adaptive run's next decision appends the samples since the last one
// and drops those that fell out of its span. A fitter re-points at the
// moved view and an index renumbers its flips as it drops. What a
// replay reads from the window start — the permutations, fitted
// states, uptime and interval memos — restarts with every sweep
// (rearm), because an estimate is a replay from the window start.

// estimationHorizon mirrors estimationCfg's effectively-unbounded work
// and deadline (1 << 40 seconds).
const estimationHorizon = int64(1) << 40

// batchPolicyKind discriminates the emulated checkpoint policies.
type batchPolicyKind uint8

const (
	polPeriodic batchPolicyKind = iota
	polMarkovDaly
)

// batchPolicy is the flattened per-permutation policy state: the
// Periodic hour latch and the Markov-Daly schedule plus its chain
// parameters (resolved once at permutation build time, exactly as the
// oracle resolves them inside computeInterval).
type batchPolicy struct {
	kind batchPolicyKind

	// Markov-Daly parameters and state.
	span   int64
	higher bool
	ts     int64

	// Periodic state.
	lastHourEnd int64
}

// chainMemoKey identifies one chain-fit memo column: everything a
// fitted chain depends on besides the (grid-aligned) fit time, which
// indexes the column.
type chainMemoKey struct {
	zone int
	span int64
}

// chainMemo memoizes one zone's chain fits by window step index: each
// step's fitted states, ascending, in one flat buffer. Every fit
// history is a window of the zone's column — a prefix while the
// policy's history span reaches back to the window start, a trailing
// span after — and the memo's WindowFitter, which counts over the
// column's chain states, slides from one fit to the next without
// per-fit sampling or bucketing; an uptime solve moves it to its step's
// window, which costs nothing when it is there already, and back when a
// second bid class asks at a step it has passed.
type chainMemo struct {
	key chainMemoKey
	// base is the window step of fits[0]: 0 for a memo armed over the
	// whole window, the head step for one a stream grid has released
	// (keepHead).
	base   int
	fits   []stepFit
	states []float64

	// wf is empty until the memo's first fit; its sample 0 is window
	// step 0, and it slides with the window.
	wf markov.WindowFitter

	// usolve memoizes expected uptimes on a (step, up-state count)
	// grid of stride ustride. The states a bid admits are a prefix of
	// the step's ascending states, and the solve reads the bid only
	// through that prefix (and the step's price), so every bid
	// admitting the same k states shares one slot — a whole bid grid
	// typically collapses to a handful of solves per step.
	usolve  memoCol
	ustride int
}

// stepFit locates one step's fitted states in its chain memo's buffer:
// n states from off. n is 0 for a step not fitted yet and -1 for one
// whose history is empty, the oracle's unfittable chain.
type stepFit struct{ off, n int32 }

// memoCol is a float memo column over window step indexes with O(1)
// bulk invalidation: an entry is set when its stamp matches the
// column's generation, so recycling a column costs one counter bump
// instead of a sentinel fill across the window. Expected uptimes and
// Daly intervals both use it (neither is ever NaN, but the stamps make
// sentinels unnecessary anyway). The column holds the entries [base,
// base+len(vals)); a one-shot sweep keeps base 0, and a stream grid
// moves it to its head between ticks (release).
type memoCol struct {
	vals []float64
	ver  []uint32
	gen  uint32
	base int
}

// arm sizes the column to the entries [lo, hi) and invalidates all of
// them.
func (mc *memoCol) arm(lo, hi int) {
	n := hi - lo
	if cap(mc.vals) < n {
		mc.vals = make([]float64, n)
		mc.ver = make([]uint32, n)
		mc.gen = 0
	}
	mc.vals = mc.vals[:n]
	mc.ver = mc.ver[:n]
	mc.base = lo
	mc.gen++
	if mc.gen == 0 { // generation counter wrapped: clear stale stamps
		for i := range mc.ver {
			mc.ver[i] = 0
		}
		mc.gen = 1
	}
}

// grow extends the column to the entries below hi without invalidating
// the set ones — the streaming evaluator's per-tick window growth.
// Appended entries carry stamp 0, which arm keeps distinct from every
// live generation, so they read as unset.
func (mc *memoCol) grow(hi int) {
	for mc.base+len(mc.vals) < hi {
		mc.vals = append(mc.vals, 0)
		mc.ver = append(mc.ver, 0)
	}
}

// release drops the entries below lo, keeping the rest set.
func (mc *memoCol) release(lo int) {
	if d := min(lo-mc.base, len(mc.vals)); d > 0 {
		mc.vals, mc.ver = dropFront(mc.vals, d), dropFront(mc.ver, d)
		mc.base = lo
	}
}

// dropFront removes the first d entries of s, keeping the rest in
// order, and hands a backing array more than four times what is left
// back to the collector: twice what is left holds the next tick's
// growth, so a stream grid's grow-then-release cycle reuses one array.
func dropFront[T any](s []T, d int) []T {
	n := copy(s, s[d:])
	clear(s[n:])
	s = s[:n]
	if cap(s) > 4*n {
		s = append(make([]T, 0, 2*n), s...)
	}
	return s
}

// get returns the entry and whether it is set.
func (mc *memoCol) get(i int) (float64, bool) {
	if j := i - mc.base; mc.ver[j] == mc.gen {
		return mc.vals[j], true
	}
	return 0, false
}

// set stores the entry.
func (mc *memoCol) set(i int, v float64) {
	j := i - mc.base
	mc.vals[j] = v
	mc.ver[j] = mc.gen
}

// batchZone is the flattened per-permutation zone state, the columnar
// counterpart of sim.ZoneState plus its billing meter and the memo
// columns its policy computations read.
type batchZone struct {
	zone    int
	state   sim.InstanceState
	restore bool

	col []float64
	idx *trace.BidIndex
	cm  *chainMemo

	progress  int64
	busyUntil int64
	readyAt   int64

	// The open meter while Up: the accruing hour's start and rate.
	hourStart int64
	hourRate  float64
}

// batchPerm is one permutation's replay state. Zone and billing-order
// storage live in the batchState's flat buffers (offsets, not slices,
// so buffer growth during the build phase cannot leave stale aliases).
type batchPerm struct {
	bid float64

	zoff, nz int // zones in spec order: zoneBuf[zoff : zoff+nz]
	boff     int // spec positions in zone-index order: billBuf[boff : boff+nz]

	pol   batchPolicy
	ivals *memoCol // Daly interval by step index (Markov-Daly only)

	// Memo of the last Periodic trigger candidate computed by
	// periodicCap, valid while the leader's open meter (trigH0) and the
	// policy latch are unchanged and now has not passed the candidate
	// (any of those moving can change the answer; nothing else can).
	trigH0, trigLatch, trigCand int64
	trigValid                   bool

	committed   int64
	cost        float64
	maxProgress int64
	nUp         int

	ckActive bool
	ckPos    int // spec position of the checkpointing zone
	ckEnds   int64
	ckSnap   int64
}

// batchState is the reusable scratch of one batched sweep: the columnar
// view, the availability index, the flat permutation arrays and the
// memo tables. Sweeps take it from one shared pool (scratch.go), so the
// steady state of successive decision points reuses every buffer.
// Permutations replay serially on one goroutine — the shared work is
// memoized, the per-step work is branch-light — so none of the state
// needs locking and results cannot depend on a worker count.
type batchState struct {
	cols  *trace.Columns
	avail *trace.AvailIndex
	org   int // absolute sample of window step 0: samples dropped since reset

	perms   []batchPerm
	zoneBuf []batchZone
	billBuf []int32

	// Memo tables, looked up by linear scan: a sweep holds one chain
	// memo per (zone, profile) — a handful of entries — so scanning
	// them beats hashing float-bearing keys.
	chains []*chainMemo

	freeChains []*chainMemo
	freeIvals  []*memoCol

	solver markov.UptimeSolver // every chain memo's uptime solves
	zsel   []int32             // computeInterval scratch: fittable spec positions

	// Replay-class scratch of a sweep: each spec's permutation (-1 for a
	// refused spec), the class keys with their permutations, an
	// open-addressed table over the keys, the sweep's distinct positive
	// bids in ascending order, and per zone each of those bids' class id
	// (cls, zone-major; clsOK marks the zones built this sweep).
	specPerm  []int32
	classKeys []replayKey
	classPerm []int32
	classTab  []int32
	cbids     []float64
	cls       []uint32
	clsOK     []bool

	start, step, end int64
	deadline         int64
	nsteps           int
	tc, tr           int64
}

// reset arms the scratch over a window unrelated to the one it holds:
// the availability indexes and chain memos start over (the memos go to
// the free list, their fitters emptied), then rearm readies the sweep.
func (b *batchState) reset(hist *trace.Set, tc, tr int64) {
	if b.cols == nil {
		b.cols = trace.NewColumns(hist)
		b.avail = trace.NewAvailIndex(b.cols)
	} else {
		b.cols.Reset(hist)
		b.avail.Reset(b.cols)
		for _, cm := range b.chains {
			cm.wf.Init(nil, nil, 0)
			b.freeChains = append(b.freeChains, cm)
		}
		b.chains = b.chains[:0]
	}
	b.org = 0
	b.tc, b.tr = tc, tr
	b.setWindow()
	b.rearm()
}

// setWindow reads the window's geometry off the columnar view.
func (b *batchState) setWindow() {
	b.start = b.cols.Start()
	b.step = b.cols.Step()
	b.end = b.cols.End()
	b.nsteps = b.cols.Steps()
	b.deadline = b.start + estimationHorizon
}

// advance slides the scratch onto hist: the window it covers, less its
// first drop samples, plus the samples its caller appended at the back
// (a stream grid's tick appends one and drops none; an Adaptive run's
// next decision appends the samples since the last one and drops those
// that fell out of its span). It moves what outlives a replay — the
// availability indexes and the chain memos' fitters — in time
// proportional to the samples that moved; what a replay reads from the
// window start is the caller's to extend (extendState) or re-arm
// (rearm). Neither reads the dropped samples, so the caller may already
// have moved its storage.
func (b *batchState) advance(hist *trace.Set, drop int) {
	b.cols.Reset(hist)
	b.avail.Slide(drop)
	b.org += drop
	b.setWindow()
	for _, cm := range b.chains {
		if cm.wf.Len() == 0 {
			continue // not fitted yet: its first fit takes the whole column
		}
		ids, vals := b.cols.States(cm.key.zone)
		cm.wf.Slide(ids, vals, drop)
	}
}

// rearm readies the scratch for a sweep replayed from the window start:
// it drops the permutations, recycling their interval memos, and
// invalidates every entry of the chain memos it keeps (armChain), whose
// fitters have slid with the window. It then trims the free lists to
// what a sweep over the window can use: no memo sized for a window
// more than twice this one. Sweeps over equally long windows therefore
// keep every buffer, however their chain memo counts alternate, while a
// scratch that served one long sweep does not pin its per-step state
// for the short ones after.
func (b *batchState) rearm() {
	for i := range b.perms {
		if iv := b.perms[i].ivals; iv != nil {
			b.freeIvals = append(b.freeIvals, iv)
		}
	}
	// Clearing drops the last sweep's column aliases and memo pointers,
	// which would otherwise outlive a window that has shrunk.
	clear(b.perms)
	clear(b.zoneBuf)
	b.perms = b.perms[:0]
	b.zoneBuf = b.zoneBuf[:0]
	b.billBuf = b.billBuf[:0]
	for _, cm := range b.chains {
		b.armChain(cm)
	}
	b.freeIvals = dropOversized(b.freeIvals, func(iv *memoCol) int { return cap(iv.vals) }, 2*b.nsteps)
	b.freeChains = dropOversized(b.freeChains, func(cm *chainMemo) int { return cap(cm.fits) }, 2*b.nsteps)
}

// trimFree shortens a free list to keep entries, clearing the dropped
// slots so the collector can reclaim what they pointed to.
func trimFree[T any](free []*T, keep int) []*T {
	if len(free) <= keep {
		return free
	}
	clear(free[keep:])
	return free[:keep]
}

// dropOversized removes the free-list entries whose size exceeds limit,
// keeping the rest in order.
func dropOversized[T any](free []*T, size func(*T) int, limit int) []*T {
	k := 0
	for _, e := range free {
		if size(e) <= limit {
			free[k] = e
			k++
		}
	}
	return trimFree(free, k)
}

// chainMemoFor returns (building if needed) the chain memo column for
// the key, covering the whole window: a memo a stream grid released to
// its head is re-armed, since whoever asks is about to replay from the
// window start.
func (b *batchState) chainMemoFor(key chainMemoKey) *chainMemo {
	for _, cm := range b.chains {
		if cm.key == key {
			if cm.base > 0 {
				b.armChain(cm)
			}
			return cm
		}
	}
	var cm *chainMemo
	if n := len(b.freeChains); n > 0 {
		cm = b.freeChains[n-1]
		b.freeChains = b.freeChains[:n-1]
	} else {
		cm = &chainMemo{}
	}
	cm.key = key
	b.armChain(cm)
	b.chains = append(b.chains, cm)
	return cm
}

// armChain sizes the memo's fit and uptime columns to the whole window
// and invalidates every entry; a fitter that slid with the window keeps
// its counts.
func (b *batchState) armChain(cm *chainMemo) {
	cm.fits = slices.Grow(cm.fits[:0], b.nsteps)[:b.nsteps]
	clear(cm.fits)
	cm.states = cm.states[:0]
	cm.base = 0
	if cm.ustride > 0 {
		cm.usolve.arm(0, b.nsteps*cm.ustride)
	}
}

// keepHead releases every memo entry behind the window's last step and
// trims the free lists to what the next tick can reuse — the stream
// grid's bound between ticks. Its resident permutations read only the
// steps a tick appends, so it keeps per chain memo the head step's
// fitted states and uptime slots, and each permutation's head interval
// slot, beside its fitters' counts; a catch-up replaying from the
// window start re-arms the memos it reads (chainMemoFor, takeIvals) and
// refits what it needs. Every entry is a pure function of the window,
// so a recomputed entry is the same float. The free lists keep no
// interval or chain memo.
func (b *batchState) keepHead() {
	head := b.nsteps - 1
	for _, cm := range b.chains {
		if d := min(head-cm.base, len(cm.fits)); d > 0 {
			cm.fits = dropFront(cm.fits, d)
			cm.base = head
			cm.keepHeadStates()
		}
		if cm.ustride > 0 {
			cm.usolve.release(head * cm.ustride)
		}
	}
	for i := range b.perms {
		if iv := b.perms[i].ivals; iv != nil {
			iv.release(head)
		}
	}
	b.freeIvals = trimFree(b.freeIvals, 0)
	b.freeChains = trimFree(b.freeChains, 0)
}

// keepHeadStates moves the fitted states of the memo's first step, the
// only one keepHead leaves, to the front of its buffer, and hands a
// buffer with room for more than a few fits' states back to the
// collector: a tick fits at most once per memo.
func (cm *chainMemo) keepHeadStates() {
	n := 0
	if len(cm.fits) > 0 {
		n = int(max(cm.fits[0].n, 0))
	}
	room := n + cm.wf.Slots()
	keep := cm.states[:0]
	if cap(keep) > 4*room {
		keep = make([]float64, 0, 2*room)
	}
	if n > 0 {
		f := &cm.fits[0]
		keep = append(keep, cm.states[f.off:f.off+f.n]...)
		f.off = 0
	}
	cm.states = keep
}

// takeIvals returns an invalidated interval memo sized to the window.
func (b *batchState) takeIvals() *memoCol {
	var iv *memoCol
	if n := len(b.freeIvals); n > 0 {
		iv = b.freeIvals[n-1]
		b.freeIvals = b.freeIvals[:n-1]
	} else {
		iv = &memoCol{}
	}
	iv.arm(0, b.nsteps)
	return iv
}

// sweep prices the specs over the window reset armed and writes their
// estimates into out in input order, replaying one permutation per
// replay class (see the header); it returns the number of replays.
// Specs addPerm refuses keep out's zero estimate.
func (b *batchState) sweep(specs []sim.RunSpec, out []estimate) int {
	b.specPerm = b.specPerm[:0]
	b.classKeys = b.classKeys[:0]
	b.classPerm = b.classPerm[:0]
	tab := 16
	for tab < 2*len(specs) {
		tab *= 2
	}
	b.classTab = slices.Grow(b.classTab[:0], tab)[:tab]
	for i := range b.classTab {
		b.classTab[i] = -1
	}
	b.classBids(specs)

	for i := range specs {
		key, keyed := b.classKey(&specs[i])
		slot := -1
		if keyed {
			slot = b.classSlot(&key)
			if c := b.classTab[slot]; c >= 0 {
				b.specPerm = append(b.specPerm, b.classPerm[c])
				continue
			}
		}
		pi := int32(-1)
		if b.addPerm(specs[i]) {
			pi = int32(len(b.perms) - 1)
			if keyed {
				b.classTab[slot] = int32(len(b.classKeys))
				b.classKeys = append(b.classKeys, key)
				b.classPerm = append(b.classPerm, pi)
			}
		}
		b.specPerm = append(b.specPerm, pi)
	}

	span := float64(b.end - b.start)
	for j := range b.perms {
		b.runPerm(&b.perms[j])
	}
	for i, pi := range b.specPerm {
		if pi >= 0 {
			p := &b.perms[pi]
			out[i] = estimate{progressRate: float64(p.maxProgress) / span, costRate: p.cost / span}
		}
	}
	return len(b.perms)
}

// replayKey is a spec's replay class (see the header) in four words:
// the resolved policy parameters, the packed zone list in spec order
// and, 16 bits per zone position, the bid's rank among that zone's
// thresholds.
type replayKey struct {
	pol   uint64 // kind, plus 1<<8 for a higher-order interval
	span  int64
	zones uint64
	ranks [2]uint64
}

// classKey returns the spec's replay class, or false for a spec that
// sweeps without one: one addPerm refuses on its face (nil policy, no
// zones, a zone out of range, a non-positive or NaN bid) or whose zone
// list or class ids do not pack.
func (b *batchState) classKey(spec *sim.RunSpec) (replayKey, bool) {
	var key replayKey
	pol, ok := policyOf(spec.Policy)
	if !ok || !(spec.Bid > 0) || len(spec.Zones) == 0 {
		return key, false
	}
	if key.zones, ok = packZones(spec.Zones); !ok {
		return key, false
	}
	key.pol, key.span = uint64(pol.kind), pol.span
	if pol.higher {
		key.pol |= 1 << 8
	}
	j := sort.SearchFloat64s(b.cbids, spec.Bid) // classBids took every positive bid
	for k, zi := range spec.Zones {
		if zi >= b.cols.NumZones() {
			return key, false
		}
		r := b.bidClasses(zi)[j]
		if r > 0xffff {
			return key, false
		}
		key.ranks[k/4] |= uint64(r) << (16 * (k % 4))
	}
	return key, true
}

// classSlot returns the classTab slot holding the key's class, or the
// empty slot where it belongs (linear probing over a table at most half
// full).
func (b *batchState) classSlot(key *replayKey) int {
	const m = 0x9e3779b97f4a7c15
	h := (key.pol ^ uint64(key.span)) * m
	h = (h ^ key.zones) * m
	h = (h ^ key.ranks[0]) * m
	h = (h ^ key.ranks[1]) * m
	mask := len(b.classTab) - 1
	for j := int(h>>32) & mask; ; j = (j + 1) & mask {
		c := b.classTab[j]
		if c < 0 || b.classKeys[c] == *key {
			return j
		}
	}
}

// classBids collects the sweep's distinct positive bids in ascending
// order — the grid whose gaps bidClasses marks — and invalidates every
// zone's class ids. Sweeps repeat one bid grid per policy and zone set,
// so an insertion into the short sorted list is all a new bid costs.
func (b *batchState) classBids(specs []sim.RunSpec) {
	g := b.cbids[:0]
	for i := range specs {
		bid := specs[i].Bid
		if !(bid > 0) {
			continue
		}
		if j := sort.SearchFloat64s(g, bid); j == len(g) || g[j] != bid {
			g = slices.Insert(g, j, bid)
		}
	}
	b.cbids = g
	nz := b.cols.NumZones()
	b.cls = slices.Grow(b.cls[:0], nz*len(g))[:nz*len(g)]
	b.clsOK = slices.Grow(b.clsOK[:0], nz)[:nz]
	clear(b.clsOK)
}

// bidClasses returns the zone's class id of each of the sweep's bids
// (cbids order), building them on the zone's first use in the sweep. A
// threshold — a raw or bucketed price of the zone's window column —
// separates bids cbids[j-1] and cbids[j] when it lies in (cbids[j-1],
// cbids[j]]; a bid's id counts the separated gaps below it, so two bids
// share an id iff no threshold lies between them, iff they admit the
// same thresholds. Columns are step functions, so the marking skips
// repeated samples.
func (b *batchState) bidClasses(zone int) []uint32 {
	g := len(b.cbids)
	ids := b.cls[zone*g : (zone+1)*g]
	if !b.clsOK[zone] {
		clear(ids)
		col := b.cols.Col(zone)
		states, vals := b.cols.States(zone)
		for i, p := range col {
			if i == 0 || p != col[i-1] {
				b.markGap(ids, p)
				b.markGap(ids, vals[states[i]])
			}
		}
		for j := 1; j < g; j++ {
			ids[j] += ids[j-1]
		}
		b.clsOK[zone] = true
	}
	return ids
}

// markGap marks the gap of the sweep's bid grid that threshold p lies
// in, if it lies between two bids.
func (b *batchState) markGap(ids []uint32, p float64) {
	if j := sort.SearchFloat64s(b.cbids, p); j > 0 && j < len(ids) {
		ids[j] = 1
	}
}

// policyOf resolves a spec's policy into the engine's flattened form,
// reporting false for a nil policy. A policy type beyond Periodic and
// Markov-Daly is a broken invariant — validated entry points never
// build one — and panics.
func policyOf(p sim.CheckpointPolicy) (batchPolicy, bool) {
	var pol batchPolicy
	switch p := p.(type) {
	case nil:
		return pol, false
	case *Periodic:
		pol.kind = polPeriodic
	case *MarkovDaly:
		pol.kind = polMarkovDaly
		pol.span = p.HistorySpan
		if pol.span <= 0 {
			pol.span = markov.DefaultHistory
		}
		pol.higher = p.HigherOrder
	default:
		panic(fmt.Sprintf("core: the batched engine cannot replay policy %T", p))
	}
	return pol, true
}

// addPerm builds the flattened replay state for one spec, reporting
// whether it did. It refuses empty zone sets and the specs
// sim.checkSpec would reject (nil policies, bad or repeated zone
// indices, non-positive bids); the oracle's answer for all of them is a
// zero estimate, which the caller keeps.
func (b *batchState) addPerm(spec sim.RunSpec) bool {
	pol, ok := policyOf(spec.Policy)
	if !ok {
		return false
	}
	nz := len(spec.Zones)
	if nz == 0 || spec.Bid <= 0 {
		return false
	}
	for i, zi := range spec.Zones {
		if zi < 0 || zi >= b.cols.NumZones() {
			return false
		}
		for _, zj := range spec.Zones[:i] {
			if zj == zi {
				return false
			}
		}
	}

	zoff := len(b.zoneBuf)
	for _, zi := range spec.Zones {
		z := batchZone{
			zone: zi,
			col:  b.cols.Col(zi),
			idx:  b.avail.Get(zi, spec.Bid),
		}
		if pol.kind == polMarkovDaly {
			z.cm = b.chainMemoFor(chainMemoKey{zone: zi, span: pol.span})
		}
		b.zoneBuf = append(b.zoneBuf, z)
	}
	boff := len(b.billBuf)
	for k := 0; k < nz; k++ {
		b.billBuf = append(b.billBuf, int32(k))
	}
	// Billing iterates zones in trace index order (Machine.Step walks
	// env.Zones, not the spec); sort the spec positions accordingly.
	bill := b.billBuf[boff : boff+nz]
	for i := 1; i < nz; i++ {
		for j := i; j > 0 && spec.Zones[bill[j]] < spec.Zones[bill[j-1]]; j-- {
			bill[j], bill[j-1] = bill[j-1], bill[j]
		}
	}
	var ivals *memoCol
	if pol.kind == polMarkovDaly {
		ivals = b.takeIvals()
	}
	b.perms = append(b.perms, batchPerm{bid: spec.Bid, zoff: zoff, nz: nz, boff: boff, pol: pol, ivals: ivals})
	return true
}

// runPerm replays one permutation over the whole window. It mirrors
// Machine.Reset + the Step loop + FinishEstimation for an estimation
// configuration, in the exact order the oracle executes them.
func (b *batchState) runPerm(p *batchPerm) {
	b.replayPerm(p)
	zs := b.zoneBuf[p.zoff : p.zoff+p.nz]
	bill := b.billBuf[p.boff : p.boff+p.nz]

	// FinishEstimation: close every running meter user-side at the end
	// of the trace, in zone index order.
	for _, bk := range bill {
		z := &zs[bk]
		if z.state != sim.Up {
			continue
		}
		for b.end >= z.hourStart+trace.Hour {
			p.cost += z.hourRate
			z.hourStart += trace.Hour
			z.hourRate = z.col[b.cols.Index(z.hourStart)]
		}
		if b.end != z.hourStart {
			p.cost += z.hourRate // started hour charged in full
		}
		z.state = sim.Down
	}
	maxP := p.committed
	for k := range zs {
		if zs[k].progress > maxP {
			maxP = zs[k].progress
		}
	}
	p.maxProgress = maxP
}

// closeEstimate computes the permutation's estimate exactly as runPerm's
// FinishEstimation close would — completed hours committed then the
// started hour charged in full, zones in index order — but on local
// copies, leaving the resident replay state untouched. The streaming
// evaluator reads per-tick estimates through it and keeps stepping the
// same permutation on the next tick.
func (b *batchState) closeEstimate(p *batchPerm, span float64) estimate {
	zs := b.zoneBuf[p.zoff : p.zoff+p.nz]
	bill := b.billBuf[p.boff : p.boff+p.nz]
	cost := p.cost
	for _, bk := range bill {
		z := &zs[bk]
		if z.state != sim.Up {
			continue
		}
		hs, hr := z.hourStart, z.hourRate
		for b.end >= hs+trace.Hour {
			cost += hr
			hs += trace.Hour
			hr = z.col[b.cols.Index(hs)]
		}
		if b.end != hs {
			cost += hr // started hour charged in full
		}
	}
	maxP := p.committed
	for k := range zs {
		if zs[k].progress > maxP {
			maxP = zs[k].progress
		}
	}
	return estimate{progressRate: float64(maxP) / span, costRate: cost / span}
}

// replayPerm initializes one permutation's state and replays it over
// the whole window, leaving the resident state live at the window end
// (meters open, availability-derived states current as of the last
// step). runPerm layers the destructive estimation close on top; the
// streaming evaluator instead keeps stepping the state tick by tick and
// reads estimates through closeEstimate.
func (b *batchState) replayPerm(p *batchPerm) {
	zs := b.zoneBuf[p.zoff : p.zoff+p.nz]
	bill := b.billBuf[p.boff : p.boff+p.nz]

	p.committed = 0
	p.cost = 0
	p.ckActive = false
	p.nUp = 0
	for k := range zs {
		z := &zs[k]
		z.state = sim.Down
		z.restore = false
		z.progress = 0
		z.busyUntil = 0
		z.readyAt = 0
	}
	p.pol.lastHourEnd = 0
	if p.pol.kind == polMarkovDaly {
		// MarkovDaly.Reset schedules at run start.
		b.schedule(p, b.start)
	}

	// Event-driven stepping: run the full per-step state machine only at
	// steps where something can change (an availability flip, a pending
	// instance coming ready, a checkpoint start/finish, a policy
	// trigger); the provably-inert stretches in between reduce to meter
	// advances and linear progress accrual, which bulkAdvance replays in
	// the oracle's exact accumulation order.
	n := b.nsteps
	now := b.start
	i := 0
	for i < n {
		b.stepPerm(p, zs, bill, now, i)
		i++
		now += b.step
		if i >= n {
			break
		}
		if j := b.horizon(p, zs, now, i); j > i {
			b.bulkAdvance(p, zs, bill, i, j)
			i = j
			now = b.start + int64(i)*b.step
		}
	}
}

// horizon returns the first step at or after i where the permutation's
// replay can do more than advance meters and accrue progress, bounding
// the stretch bulkAdvance may fast-forward. The bound is conservative:
// stopping at a step where nothing happens is just a missed skip, never
// an error. The returned step assumes the states current after step
// i-1, so it must be recomputed after every full step.
func (b *batchState) horizon(p *batchPerm, zs []batchZone, now int64, i int) int {
	j := b.nsteps
	if p.nUp > 0 {
		for k := range zs {
			z := &zs[k]
			switch z.state {
			case sim.Up:
				if z.busyUntil > now {
					// A busy zone accrues partial progress and can shift
					// the checkpoint leader; busy spells last a step or
					// two, so run them through the full state machine.
					return i
				}
				if f := z.idx.NextChange(i - 1); f < j {
					j = f
				}
			case sim.Pending:
				if f := z.idx.NextChange(i - 1); f < j {
					j = f
				}
				if t := b.stepAtOrAfter(z.readyAt); t < j {
					j = t
				}
			}
			// Waiting and Down zones need no cap while instances run:
			// with no hook observing them their state is a pure function
			// of the current availability bit, and stepPerm's update
			// switch re-derives it from the live bit whenever the
			// stretch ends — intermediate flips are unobservable.
		}
		if p.ckActive {
			if t := b.stepAtOrAfter(p.ckEnds); t < j {
				j = t
			}
		} else if p.pol.kind == polMarkovDaly {
			if t := b.stepAtOrAfter(p.pol.ts); t < j {
				j = t
			}
		} else {
			j = b.periodicCap(p, zs, now, j)
		}
	} else {
		// No running instances: a checkpoint cannot be in flight (its
		// zone would be up), but the no-instance hook resubmits every
		// effectively-waiting zone each step, so any zone whose bit is
		// (or becomes) up forces full stepping.
		for k := range zs {
			z := &zs[k]
			if f := z.idx.NextChange(i - 1); f < j {
				j = f
			}
			switch z.state {
			case sim.Pending:
				if t := b.stepAtOrAfter(z.readyAt); t < j {
					j = t
				}
			case sim.Waiting, sim.Down:
				if z.idx.Up(i - 1) {
					return i
				}
			}
		}
	}
	if j < i {
		return i
	}
	return j
}

// stepAtOrAfter returns the first step index whose time is at or after
// x, clamped to the window.
func (b *batchState) stepAtOrAfter(x int64) int {
	d := x - b.start
	if d <= 0 {
		return 0
	}
	t := (d + b.step - 1) / b.step
	if t > int64(b.nsteps) {
		return b.nsteps
	}
	return int(t)
}

// periodicCap bounds a stretch by the Periodic policy's next trigger.
// The cap is exact: a stretch has no busy up zones (horizon single-
// steps those), so every up zone accrues identical progress, progress
// differences are constant, and the strictly-max first-wins leader —
// the zone whose billing hour drives the condition — cannot change
// before the stretch ends.
func (b *batchState) periodicCap(p *batchPerm, zs []batchZone, now int64, j int) int {
	lead := -1
	for k := range zs {
		z := &zs[k]
		if z.state == sim.Up && (lead < 0 || z.progress > zs[lead].progress) {
			lead = k
		}
	}
	if lead < 0 {
		return j
	}
	h0 := zs[lead].hourStart
	latch := p.pol.lastHourEnd
	// The candidate depends only on (h0, latch) and now, and while now
	// has not reached a previously computed candidate the answer cannot
	// move (every hour end between then and the candidate would have
	// either triggered or advanced the meter, changing h0 or the latch),
	// so the last candidate is reusable across consecutive events.
	if !p.trigValid || p.trigH0 != h0 || p.trigLatch != latch || p.trigCand < now {
		p.trigCand = b.trigTime(h0, now, b.tc+b.step, latch)
		p.trigH0, p.trigLatch, p.trigValid = h0, latch, true
	}
	if t := (p.trigCand - b.start) / b.step; t < int64(j) {
		j = int(t)
	}
	return j
}

// trigTime returns the first grid time at or after now where a meter
// opened at h0 (and advancing hour by hour) is within thr of its hour
// end and that hour end is not latched — the Periodic trigger condition
// for a zone that stays up.
func (b *batchState) trigTime(h0, now, thr, latch int64) int64 {
	k := (now - h0) / trace.Hour
	for {
		hEnd := h0 + (k+1)*trace.Hour
		cand := now
		if lo := hEnd - thr; lo > cand {
			cand = b.start + ((lo-b.start+b.step-1)/b.step)*b.step
		}
		// cand < hEnd always: the qualifying window is at least one step
		// long (thr >= step) and now precedes hEnd in this hour.
		if hEnd != latch {
			return cand
		}
		k++
	}
}

// bulkAdvance fast-forwards one permutation across the inert steps
// [a, c): every completed instance-hour is charged at the step where
// the oracle's meter advance would commit it, ordered by (step, zone
// index) exactly like the per-step loop, and each up zone accrues one
// full step of progress per step.
func (b *batchState) bulkAdvance(p *batchPerm, zs []batchZone, bill []int32, a, c int) {
	if p.nUp == 0 {
		return
	}
	adv := int64(c-a) * b.step
	if p.nUp == 1 {
		// One up zone: its charges are the only ones in the stretch, so
		// a tight per-hour loop reproduces the merge order trivially. An
		// hour fires inside the stretch iff its end is at or before the
		// last in-stretch grid time (the merge loop's fire-step bound,
		// cleared of the ceiling division).
		lastT := b.start + int64(c-1)*b.step
		for k := range zs {
			z := &zs[k]
			if z.state != sim.Up {
				continue
			}
			for z.hourStart+trace.Hour <= lastT {
				p.cost += z.hourRate
				z.hourStart += trace.Hour
				z.hourRate = z.col[b.cols.Index(z.hourStart)]
			}
			z.progress += adv
			return
		}
	}
	for {
		var zf *batchZone
		var bestT int64
		for _, bk := range bill {
			z := &zs[bk]
			if z.state != sim.Up {
				continue
			}
			f := z.hourStart + trace.Hour
			t := (f - b.start + b.step - 1) / b.step
			if t >= int64(c) {
				continue
			}
			if zf == nil || t < bestT {
				zf = z
				bestT = t
			}
		}
		if zf == nil {
			break
		}
		p.cost += zf.hourRate
		zf.hourStart += trace.Hour
		zf.hourRate = zf.col[b.cols.Index(zf.hourStart)]
	}
	for k := range zs {
		z := &zs[k]
		if z.state == sim.Up {
			z.progress += adv
		}
	}
}

// stepPerm advances one permutation by one interval, mirroring
// Machine.Step stage by stage (deadline guard disabled, static
// strategy, no Releaser/Admission on the supported policies).
func (b *batchState) stepPerm(p *batchPerm, zs []batchZone, bill []int32, now int64, i int) {
	// Billing: commit completed instance-hours, zones in index order.
	for _, bk := range bill {
		z := &zs[bk]
		if z.state != sim.Up {
			continue
		}
		for now >= z.hourStart+trace.Hour {
			p.cost += z.hourRate
			z.hourStart += trace.Hour
			z.hourRate = z.col[b.cols.Index(z.hourStart)]
		}
	}

	// Instance state updates against the current spot prices, spec
	// order.
	for k := range zs {
		z := &zs[k]
		up := z.idx.Up(i)
		switch z.state {
		case sim.Up:
			if !up {
				// Provider kill: the in-progress hour is free and all
				// speculative progress is lost; a checkpoint running on
				// this zone aborts with it.
				z.state = sim.Down
				z.progress = p.committed
				p.nUp--
				if p.ckActive && p.ckPos == k {
					p.ckActive = false
				}
			}
		case sim.Pending:
			if !up {
				z.state = sim.Down
			} else if z.readyAt <= now {
				b.promote(p, z)
			}
		case sim.Waiting:
			if !up {
				z.state = sim.Down
			}
		case sim.Down:
			if up {
				z.state = sim.Waiting
			}
		}
	}

	// Checkpoint completion commits progress and wakes waiting zones.
	if p.ckActive && now >= p.ckEnds {
		p.committed = p.ckSnap
		p.ckActive = false
		b.startWaiting(p, zs, now)
		if p.pol.kind == polMarkovDaly {
			b.schedule(p, now)
		}
	}

	// Policy hooks.
	if p.nUp > 0 {
		if !p.ckActive && b.condition(p, zs, now) {
			b.beginCheckpoint(p, zs, now)
		}
	} else if b.startWaiting(p, zs, now) {
		if p.pol.kind == polMarkovDaly {
			b.schedule(p, now)
		}
	}

	// Compute over [now, now+step) on every up zone, spec order. The
	// estimation work budget (1 << 40 s) dwarfs any window, so the
	// oracle's finish-on-completion branch is unreachable here.
	for k := range zs {
		z := &zs[k]
		if z.state != sim.Up {
			continue
		}
		activeStart := now
		if z.busyUntil > activeStart {
			activeStart = z.busyUntil
		}
		end := now + b.step
		if activeStart >= end {
			continue
		}
		z.progress += end - activeStart
	}
}

// promote turns a Pending request into a running instance, opening its
// meter at the ready time's price.
func (b *batchState) promote(p *batchPerm, z *batchZone) {
	z.state = sim.Up
	p.nUp++
	z.hourStart = z.readyAt
	z.hourRate = z.col[b.cols.Index(z.readyAt)]
	z.progress = p.committed
	z.busyUntil = z.readyAt
	if z.restore {
		z.busyUntil += b.tr
	}
}

// startWaiting submits spot requests for every waiting zone; the
// estimation configuration's fixed queuing delay keeps the replay
// deterministic without an RNG.
func (b *batchState) startWaiting(p *batchPerm, zs []batchZone, now int64) bool {
	any := false
	for k := range zs {
		z := &zs[k]
		if z.state != sim.Waiting {
			continue
		}
		z.state = sim.Pending
		z.readyAt = now + estimationDelay
		z.restore = p.committed > 0
		any = true
		if z.readyAt <= now {
			b.promote(p, z)
		}
	}
	return any
}

// condition evaluates CheckpointCondition for the permutation's policy.
func (b *batchState) condition(p *batchPerm, zs []batchZone, now int64) bool {
	if p.pol.kind == polMarkovDaly {
		return now >= p.pol.ts
	}
	// Periodic: trigger once per billing hour of the leader — the Up
	// zone with strictly greatest progress, first wins in spec order
	// (env.Leader does not filter on BusyUntil) — at the last step from
	// which the checkpoint still completes within the hour.
	lead := -1
	for k := range zs {
		z := &zs[k]
		if z.state == sim.Up && (lead < 0 || z.progress > zs[lead].progress) {
			lead = k
		}
	}
	if lead < 0 {
		return false
	}
	hourEnd := zs[lead].hourStart + trace.Hour
	if hourEnd == p.pol.lastHourEnd {
		return false
	}
	remaining := hourEnd - now
	if remaining > 0 && remaining <= b.tc+b.step {
		p.pol.lastHourEnd = hourEnd
		return true
	}
	return false
}

// beginCheckpoint starts a checkpoint on the most advanced non-busy up
// zone, committing immediately when checkpoints are free.
func (b *batchState) beginCheckpoint(p *batchPerm, zs []batchZone, now int64) {
	lead := -1
	for k := range zs {
		z := &zs[k]
		if z.state != sim.Up || z.busyUntil > now {
			continue
		}
		if lead < 0 || z.progress > zs[lead].progress {
			lead = k
		}
	}
	if lead < 0 {
		return
	}
	snap := zs[lead].progress // IterationSeconds is 0 in estimation replays
	if snap <= p.committed {
		return
	}
	p.ckActive = true
	p.ckPos = lead
	p.ckEnds = now + b.tc
	p.ckSnap = snap
	zs[lead].busyUntil = p.ckEnds
	if b.tc == 0 {
		p.committed = snap
		p.ckActive = false
		b.startWaiting(p, zs, now)
		if p.pol.kind == polMarkovDaly {
			b.schedule(p, now)
		}
	}
}

// schedule recomputes the Markov-Daly checkpoint time T_s.
func (b *batchState) schedule(p *batchPerm, now int64) {
	iv := b.interval(p, now)
	if math.IsInf(iv, 1) {
		p.pol.ts = b.deadline
		return
	}
	p.pol.ts = now + int64(iv)
}

// interval returns Daly's interval at the decision time through the
// permutation's memo column. Schedule times always fall on the step
// grid — the reset schedule runs at the window start and every
// reschedule happens inside a step — so the memo indexes by step.
func (b *batchState) interval(p *batchPerm, now int64) float64 {
	si := int((now - b.start) / b.step)
	if v, ok := p.ivals.get(si); ok {
		return v
	}
	v := b.computeInterval(p, si)
	p.ivals.set(si, v)
	return v
}

// computeInterval fits (or fetches) the per-zone chains on the trailing
// history and applies Daly's estimate to their combined expected
// uptime, mirroring MarkovDaly.computeInterval — including the lazy
// short-circuit of markov.CombinedExpectedUptime, which stops solving
// at the first unbounded zone.
func (b *batchState) computeInterval(p *batchPerm, si int) float64 {
	zs := b.zoneBuf[p.zoff : p.zoff+p.nz]
	b.zsel = b.zsel[:0]
	for k := range zs {
		if _, ok := b.chainAt(&zs[k], si); ok {
			b.zsel = append(b.zsel, int32(k))
		}
	}
	if len(b.zsel) == 0 {
		return math.Inf(1)
	}
	var mtbf float64
	for _, k := range b.zsel {
		u := b.uptimeAt(&zs[k], si, p.bid)
		if math.IsInf(u, 1) {
			mtbf = math.Inf(1)
			break
		}
		mtbf += u
	}
	tc := float64(b.tc)
	if p.pol.higher {
		return daly.Optimal(tc, mtbf)
	}
	return daly.Young(tc, mtbf)
}

// chainAt returns the states of the zone's chain fitted at step si,
// through the memo column, and false for an unfittable history.
func (b *batchState) chainAt(z *batchZone, si int) ([]float64, bool) {
	cm := z.cm
	f := &cm.fits[si-cm.base]
	if f.n == 0 {
		f.n = -1
		if b.countAt(cm, si) {
			off := len(cm.states)
			cm.states = cm.wf.States(cm.states)
			f.off, f.n = int32(off), int32(len(cm.states)-off)
		}
	}
	if f.n < 0 {
		return nil, false
	}
	return cm.states[f.off : f.off+f.n], true
}

// uptimeAt returns the zone's expected uptime at step si, through the
// chain memo's bid-collapsed column: the solve reads the bid only
// through the admitted state prefix (states ascending, admit iff price
// <= bid) and the step's current price, so it is a pure function of
// (fitted chain, prefix length k, price at step) and every bid
// admitting k states shares one memo slot. A miss moves the memo's
// fitter to the step's window and solves from its counts. The step's
// chain is fittable (computeInterval asks chainAt first).
func (b *batchState) uptimeAt(z *batchZone, si int, bid float64) float64 {
	cm := z.cm
	states, _ := b.chainAt(z, si)
	k := upCount(states, bid)
	if k >= cm.ustride {
		// Widen the grid; invalidating the narrower entries is fine,
		// they are pure and recomputable.
		cm.ustride = k + 8
		cm.usolve.arm(cm.base*cm.ustride, b.nsteps*cm.ustride)
	}
	slot := si*cm.ustride + k
	if v, ok := cm.usolve.get(slot); ok {
		return v
	}
	b.countAt(cm, si)
	v := cm.wf.Uptime(&b.solver, bid, z.col[si])
	cm.usolve.set(slot, v)
	return v
}

// upCount returns how many of the ascending distinct states the bid
// admits (price <= bid) — the length of the state prefix the uptime
// solve actually reads.
func upCount(states []float64, bid float64) int {
	return sort.Search(len(states), func(i int) bool { return states[i] > bid })
}

// countAt moves the memo's fitter to the window of the chain fit at
// step si, reporting false for an unfittable (empty) history. The
// window is the samples Columns.Index(from), Index(from)+1, … that the
// oracle's Env.PriceHistory reads at the grid times from, from+step,
// …, now (off-grid spans included), so the fit is the memo fitter's
// window over the zone's states.
func (b *batchState) countAt(cm *chainMemo, si int) bool {
	now := b.start + int64(si)*b.step
	from := max(now-cm.key.span+b.step, b.start)
	if from > now {
		return false
	}
	if cm.wf.Len() == 0 {
		ids, vals := b.cols.States(cm.key.zone)
		cm.wf.Init(ids, vals, b.step)
	}
	lo := b.cols.Index(from)
	_, err := cm.wf.Count(lo, lo+int((now-from)/b.step)+1)
	return err == nil
}
