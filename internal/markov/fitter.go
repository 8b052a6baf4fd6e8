package markov

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/trace"
)

// Quantum is the nickel bucket prices are rounded to for a chain's
// states (Quantize(prices, Quantum), and the trace's state columns).
const Quantum = trace.Quantum

// WindowFitter fits chains on windows [lo, hi) of one state column
// without re-bucketing or re-sorting per fit. It reads a view of the
// column (Init): ids[i] is sample i's state, an index into vals, the
// states' bucketed values — a trace.Series' States, which the trace
// buckets once. It holds no ids of its own, only counts: for the window
// last fitted, each present state's occurrence count and the transition
// count table, over one local slot per state present, and it slides
// both window ends to the requested window, so a sequence of fits whose
// windows move forward and overlap costs O(Δ + D²) per fit, where Δ is
// how far the ends moved and D the number of states in the windows. A
// window that moves backwards, shrinks its end or jumps past the old
// one re-counts from scratch. The counts are integer-valued floats, so
// arriving at a window incrementally or in one pass is value-identical,
// and the produced models are bit-identical to Fit(Quantize(window,
// Quantum)) (TestWindowFitterMatchesFit pins this). The oracle's
// Markov-Daly policy, the batched permutation evaluator and the
// streaming grid refit trailing windows that share almost all their
// samples, which makes a from-scratch fit per call the dominant cost.
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
	live  []int32 // the occupied slots in order: the fitted model's states

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

// Fit estimates the chain from the bucketed samples [lo, hi), exactly
// like Fit(Quantize(window, 0.05)) over the raw samples; an empty
// window reports ErrNoHistory, and an empty view or a negative start an
// error. When reuse is non-nil its storage is recycled for the result
// (the caller must be done with it); the returned model is reuse itself
// in that case.
func (f *WindowFitter) Fit(lo, hi int, reuse *Model) (*Model, error) {
	if _, err := f.Count(lo, hi); err != nil {
		return nil, err
	}
	if reuse == nil {
		reuse = &Model{}
	}
	nn := len(f.live)
	states := slices.Grow(reuse.States[:0], nn)
	for _, s := range f.live {
		states = append(states, f.vals[f.sid[s]])
	}

	// Row storage: one flat backing array, rows sliced out of it. When
	// the reused model was produced by a WindowFitter its rows are
	// contiguous slices of one array whose capacity row 0 still
	// reaches, so the backing can be recovered; models from plain Fit
	// just reallocate. A model outgrowing its storage gets headroom, as
	// a refitted model's state count creeps.
	var flat []float64
	if len(reuse.Trans) > 0 {
		flat = reuse.Trans[0][:0]
	}
	if cap(flat) < nn*nn {
		c := nn
		if cap(flat) > 0 {
			c += nn / 2
		}
		flat = make([]float64, nn*nn, c*c)
	}
	flat = flat[:nn*nn]
	trans := slices.Grow(reuse.Trans[:0], nn)
	for i, si := range f.live {
		row := flat[i*nn : (i+1)*nn]
		base := int(si) * f.stride
		var total float64
		for j, sj := range f.live {
			c := f.ccounts[base+int(sj)]
			row[j] = c
			total += c
		}
		if total == 0 {
			// A state with no observed outgoing transition (e.g. the
			// final sample): treat it as absorbing.
			row[i] = 1
		} else {
			for j := range row {
				row[j] /= total
			}
		}
		trans = append(trans, row)
	}
	reuse.States = states
	reuse.Trans = trans
	reuse.Step = f.step
	reuse.Horizon = 0
	return reuse, nil
}

// Count slides the counted window to [lo, hi) and returns the number of
// states the fit of that window has, with Fit's errors; a Fit of the
// same window right after it only emits the model.
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
	// Slide the counted window to [lo, hi): grow the end first, then
	// drop the samples before lo. Every pair inside the new window is
	// counted once, and every pair that left it is uncounted once.
	if lo < f.lo || lo >= f.hi || hi < f.hi {
		f.recount(lo)
	}
	// Consecutive samples mostly repeat a state (price columns are step
	// functions), which skips the slot lookup.
	prev, pid := -1, int32(-1)
	if f.hi > f.lo {
		pid = f.id(f.hi - 1)
		prev = int(f.slot[pid])
	}
	for t := f.hi; t < hi; t++ {
		g := prev
		if id := f.id(t); id != pid {
			g, pid = f.slotOf(id), id
		}
		f.occ[g]++
		if t > f.lo {
			f.ccounts[prev*f.stride+g]++
		}
		prev = g
	}
	g, gid := -1, int32(-1)
	for t := f.lo; t < lo; t++ {
		if id := f.id(t); id != gid {
			g, gid = int(f.slot[id]), id
		}
		next := int(f.slot[f.id(t+1)])
		f.ccounts[g*f.stride+next]--
		if f.occ[g]--; f.occ[g] == 0 {
			f.release(g)
		}
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

// UptimeSolver computes Model.ExpectedUptimeExact without its per-call
// allocations, keeping the elimination workspace across calls. The
// arithmetic — up-state collection, the (I − U)·E = step·1 system, the
// partial-pivot elimination of mat.Solve and its 1e-12 singularity
// threshold — replays the method instruction for instruction, so the
// results are bit-identical (SolverMatchesExact in the tests pins
// this).
//
// An UptimeSolver is not safe for concurrent use.
type UptimeSolver struct {
	upIdx []int
	aug   []float64
	x     []float64
}

// ExpectedUptime returns m.ExpectedUptimeExact(bid, currentPrice),
// computed in the solver's scratch space.
func (s *UptimeSolver) ExpectedUptime(m *Model, bid, currentPrice float64) float64 {
	start := m.StateOf(currentPrice)
	if m.States[start] > bid {
		return 0
	}
	s.upIdx = s.upIdx[:0]
	pos := -1
	for i, p := range m.States {
		if p <= bid {
			if i == start {
				pos = len(s.upIdx)
			}
			s.upIdx = append(s.upIdx, i)
		}
	}
	n := len(s.upIdx)
	if cap(s.aug) < n*n {
		s.aug = make([]float64, n*n)
		s.x = make([]float64, n)
	}
	aug := s.aug[:n*n]
	x := s.x[:n]
	for r, i := range s.upIdx {
		x[r] = float64(m.Step)
		row := aug[r*n : (r+1)*n]
		for c, j := range s.upIdx {
			v := -m.Trans[i][j]
			if r == c {
				v += 1
			}
			row[c] = v
		}
	}
	// Gaussian elimination with partial pivoting on the single-column
	// system, mirroring mat.Solve.
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(aug[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug[r*n+col]); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-12 {
			return math.Inf(1) // singular: the up set can hold forever
		}
		if pivot != col {
			ri, rj := aug[pivot*n:(pivot+1)*n], aug[col*n:(col+1)*n]
			for k := range ri {
				ri[k], rj[k] = rj[k], ri[k]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		pv := aug[col*n+col]
		for r := col + 1; r < n; r++ {
			f := aug[r*n+col] / pv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				aug[r*n+c] -= f * aug[col*n+c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		sum := x[col]
		for k := col + 1; k < n; k++ {
			sum -= aug[col*n+k] * x[k]
		}
		x[col] = sum / aug[col*n+col]
	}
	v := x[pos]
	if v < 0 || math.IsNaN(v) {
		// Numerical noise on a nearly-singular system: treat as
		// effectively unbounded.
		return math.Inf(1)
	}
	return v
}
