package markov

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/trace"
)

// Quantum is the nickel bucket prices are rounded to for a chain's
// states (Quantize(prices, Quantum), and the trace's state columns).
const Quantum = trace.Quantum

// WindowFitter answers, for windows [lo, hi) of one state column, what
// the chain fitted on the window tells its readers — its ascending
// states (States) and its expected uptime at a bid (Uptime) — without
// re-bucketing, re-sorting or building a Model per window. It reads a
// view of the column (Init): ids[i] is sample i's state, an index into
// vals, the states' bucketed values — a trace.Series' States, which the
// trace buckets once. It holds no ids of its own, only counts: for the
// window last counted, each present state's occurrence count and the
// transition count table, over one local slot per state present, and it
// slides both window ends to the requested window, so a sequence of
// windows that move forward and overlap costs O(Δ + D²) each, where Δ is
// how far the ends moved and D the number of states in the windows. A
// window that moves backwards, shrinks its end or jumps past the old
// one re-counts from scratch. The counts are integer-valued floats, so
// arriving at a window incrementally or in one pass is value-identical,
// and every answer is bit-identical to that of Fit(Quantize(window,
// Quantum)) (FuzzWindowFitter pins this). The oracle's Markov-Daly
// policy, the batched permutation evaluator and the streaming grid
// refit trailing windows that share almost all their samples, which
// makes a from-scratch fit per call the dominant cost.
//
// A window may reach past the view's end: those samples read as the
// view's last, as trace.Series.PriceAt clamps.
//
// A WindowFitter is not safe for concurrent use.
type WindowFitter struct {
	step int64
	ids  []int32   // the column view
	vals []float64 // state values by id

	// Local slots: slot[id] is the state's slot (-1 for none), sid[s]
	// the slot's state and order every slot in ascending value of its
	// state. A slot no sample of the counted window occupies keeps its
	// state, so a recount finds the slots it needs in place, until a new
	// state claims it (free lists the candidates): it has no counted
	// transition left, so it is reused as it is.
	slot  []int32
	sid   []int32
	order []int32
	free  []int32
	live  []int32 // the occupied slots in order: the fitted chain's states

	occ     []int32   // occurrences of each slot's state in [lo, hi)
	ccounts []float64 // transition counts over the pairs inside [lo, hi), stride × stride
	stride  int
	lo, hi  int // the window occ and ccounts cover
}

// Init restarts the fitter on a state column view of samples step
// seconds apart: ids[i] is sample i's state and vals[id] its value. The
// view is only read, and must not change under the fitter except as
// Slide allows. Buffers are reused across calls.
func (f *WindowFitter) Init(ids []int32, vals []float64, step int64) {
	for _, id := range f.sid {
		f.slot[id] = -1
	}
	f.sid, f.order, f.occ = f.sid[:0], f.order[:0], f.occ[:0]
	f.step = step
	f.ids, f.vals = ids, vals
	f.recount(0)
	f.growSlots()
}

// Slide re-points the fitter at a view of the same column whose sample
// i is the previous view's sample drop+i: the column dropped drop
// samples at the front (in place or not) and may have grown at the
// back. The counted window moves with the samples; one that held a
// dropped sample, or a clamped one past the old view's end, re-counts
// at the next fit.
func (f *WindowFitter) Slide(ids []int32, vals []float64, drop int) {
	if f.lo < drop || f.hi > len(f.ids) {
		f.recount(0)
	} else {
		f.lo -= drop
		f.hi -= drop
	}
	f.ids, f.vals = ids, vals
	f.growSlots()
}

// Len returns the number of samples in the view.
func (f *WindowFitter) Len() int { return len(f.ids) }

// Slots returns the number of local slots the fitter counts over: at
// most the states two consecutive fit windows have held since Init. Its
// count table holds under max(16, 2·Slots)² floats, and it holds
// nothing per sample.
func (f *WindowFitter) Slots() int { return len(f.sid) }

// growSlots extends the slot map over the view's value table.
func (f *WindowFitter) growSlots() {
	if n := len(f.vals) - len(f.slot); n > 0 {
		f.slot = slices.Grow(f.slot, n)
		for range n {
			f.slot = append(f.slot, -1)
		}
	}
}

// recount empties the counted window, placing it at lo; every slot
// keeps its state and becomes free to claim.
func (f *WindowFitter) recount(lo int) {
	clear(f.occ)
	clear(f.ccounts)
	f.free = f.free[:0]
	for s := range f.sid {
		f.free = append(f.free, int32(s))
	}
	f.lo, f.hi = lo, lo
}

// id returns sample t's state; a sample past the view's end reads as
// the last.
func (f *WindowFitter) id(t int) int32 { return f.ids[min(t, len(f.ids)-1)] }

// slotOf returns the state's slot, claiming one if it has none: an
// unoccupied slot, or a new one.
func (f *WindowFitter) slotOf(id int32) int {
	if s := f.slot[id]; s >= 0 {
		return int(s)
	}
	s := -1
	for len(f.free) > 0 && s < 0 {
		c := f.free[len(f.free)-1]
		f.free = f.free[:len(f.free)-1]
		if f.occ[c] == 0 {
			s = int(c)
		}
	}
	if s >= 0 {
		f.slot[f.sid[s]] = -1
		i := slices.Index(f.order, int32(s))
		f.order = slices.Delete(f.order, i, i+1)
		f.sid[s] = id
	} else {
		s = len(f.sid)
		f.sid = append(f.sid, id)
		f.occ = append(f.occ, 0)
		if s == f.stride {
			f.widen()
		}
	}
	f.slot[id] = int32(s)
	v := f.vals[id]
	i := len(f.order)
	for ; i > 0 && f.vals[f.sid[f.order[i-1]]] > v; i-- {
	}
	f.order = slices.Insert(f.order, i, int32(s))
	return s
}

// release marks a slot whose last occurrence left the window free to
// claim. Slots a recount found again stay listed; the list is rebuilt
// when such entries outnumber the slots.
func (f *WindowFitter) release(s int) {
	if len(f.free) > 2*len(f.sid) {
		f.free = f.free[:0]
		for c, n := range f.occ {
			if n == 0 && c != s {
				f.free = append(f.free, int32(c))
			}
		}
	}
	f.free = append(f.free, int32(s))
}

// widen doubles the count table's stride, moving the counts, and gives
// the per-slot lists room for as many slots in one allocation. The
// first table holds 16 states, which most fits never outgrow.
func (f *WindowFitter) widen() {
	old, ns := f.stride, max(16, 2*f.stride)
	counts := make([]float64, ns*ns)
	for r := 0; r < old; r++ {
		copy(counts[r*ns:r*ns+old], f.ccounts[r*old:(r+1)*old])
	}
	f.ccounts, f.stride = counts, ns
	room := make([]int32, 5*ns)
	for i, l := range []*[]int32{&f.sid, &f.occ, &f.order, &f.live, &f.free} {
		*l = append(room[i*ns:i*ns:(i+1)*ns], *l...)
	}
}

// Count slides the counted window to [lo, hi) and returns the number of
// states the chain fitted on it has. An empty window reports
// ErrNoHistory, and an empty view or a negative start an error, as Fit
// does. Counting the window already counted costs nothing, and a run of
// samples repeating one state is counted in one step.
func (f *WindowFitter) Count(lo, hi int) (int, error) {
	if hi <= lo {
		return 0, ErrNoHistory
	}
	if f.step <= 0 {
		return 0, fmt.Errorf("markov: non-positive step %d", f.step)
	}
	if lo < 0 || len(f.ids) == 0 {
		return 0, fmt.Errorf("markov: window [%d, %d) outside the fitter's %d samples", lo, hi, len(f.ids))
	}
	if lo == f.lo && hi == f.hi {
		return len(f.live), nil
	}
	// Slide the counted window to [lo, hi): grow the end first, then
	// drop the samples before lo. Every pair inside the new window is
	// counted once, and every pair that left it is uncounted once.
	// Price columns are step functions, so the samples come in runs of
	// one state: a run of L samples is L occurrences and, after the
	// transition into its first sample, L−1 self-transitions. The counts
	// are integer-valued floats, so adding a run at once is exact.
	if lo < f.lo || lo >= f.hi || hi < f.hi {
		f.recount(lo)
	}
	prev, pid := -1, int32(-1)
	if f.hi > f.lo {
		pid = f.id(f.hi - 1)
		prev = int(f.slot[pid])
	}
	for t := f.hi; t < hi; {
		id := f.id(t)
		g := prev
		if id != pid {
			g, pid = f.slotOf(id), id
		}
		e := f.runEnd(t+1, hi, id)
		f.occ[g] += int32(e - t)
		if prev >= 0 {
			f.ccounts[prev*f.stride+g]++
		}
		f.ccounts[g*f.stride+g] += float64(e - t - 1)
		prev, t = g, e
	}
	for t := f.lo; t < lo; {
		id := f.id(t)
		g := int(f.slot[id])
		e := f.runEnd(t+1, lo, id)
		f.ccounts[g*f.stride+g] -= float64(e - t - 1)
		f.ccounts[g*f.stride+int(f.slot[f.id(e)])]--
		if f.occ[g] -= int32(e - t); f.occ[g] == 0 {
			f.release(g)
		}
		t = e
	}
	f.lo, f.hi = lo, hi
	// The window's states are the occupied slots, in the ascending
	// value order Fit sorts them into. Transitions among them are
	// exactly the table entries at their slots: every sample in the
	// window occupies one, so no counted transition is dropped.
	f.live = f.live[:0]
	for _, s := range f.order {
		if f.occ[s] > 0 {
			f.live = append(f.live, s)
		}
	}
	return len(f.live), nil
}

// runEnd returns the first sample at or after t, and before hi, whose
// state is not id, or hi; samples past the view's end repeat its last.
func (f *WindowFitter) runEnd(t, hi int, id int32) int {
	n := len(f.ids)
	for end := min(hi, n); t < end && f.ids[t] == id; t++ {
	}
	if t >= n && f.ids[n-1] == id {
		return hi
	}
	return t
}

// States appends the states of the window the last Count counted to
// dst, in ascending order: the States of the chain fitted on it.
func (f *WindowFitter) States(dst []float64) []float64 {
	for _, s := range f.live {
		dst = append(dst, f.vals[f.sid[s]])
	}
	return dst
}

// Uptime returns the expected uptime at the bid from the current price
// of the chain fitted on the window the last Count counted:
// Fit(Quantize(window, Quantum)).ExpectedUptimeExact(bid, price), bit
// for bit, solved straight from the counts in s's workspace. The states
// ascend, so the up states (price ≤ bid) are a prefix of them, and only
// that block of I − U is built: entry (i, j) is −(c_ij / t_i), plus 1 on
// the diagonal, where t_i, state i's outgoing transitions, is its
// occurrences less one when the window ends on it — the exact integer
// Fit sums its row to. A state with no outgoing transition keeps Fit's
// absorbing row, which leaves −0 off the diagonal and +0 on it.
func (f *WindowFitter) Uptime(s *UptimeSolver, bid, price float64) float64 {
	live := f.live
	state := func(i int) float64 { return f.vals[f.sid[live[i]]] }
	// Model.StateOf's nearest state, clamped to the ends.
	n := len(live)
	start := sort.Search(n, func(i int) bool { return state(i) >= price })
	switch {
	case start == n:
		start = n - 1
	case start > 0 && price-state(start-1) <= state(start)-price:
		start--
	}
	if state(start) > bid {
		return 0
	}
	k := start + 1
	for k < n && state(k) <= bid {
		k++
	}
	aug, x := s.system(k)
	last := int(f.slot[f.id(f.hi-1)])
	for r := range k {
		si := int(live[r])
		total := float64(f.occ[si])
		if si == last {
			total--
		}
		x[r] = float64(f.step)
		row := aug[r*k : (r+1)*k]
		counts := f.ccounts[si*f.stride:]
		for c := range row {
			v := math.Copysign(0, -1) // an absorbing row's −Trans[i][j]
			if total != 0 {
				v = -(counts[live[c]] / total)
			} else if r == c {
				v = -1
			}
			if r == c {
				v += 1
			}
			row[c] = v
		}
	}
	return solveUptime(aug, x, k, start)
}
