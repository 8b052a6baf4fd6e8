package markov

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Quantum is the nickel bucket a WindowFitter rounds prices to (as
// Quantize(prices, Quantum) does), bounding the chain's state count.
const Quantum = 0.05

// WindowFitter fits chains on windows [lo, hi) of one price column
// without re-sorting per fit. It buckets each raw price it takes (Init
// in bulk, Append one at a time) to Quantum and keeps its state id,
// indexed from Init on. Fit keeps, for the window last fitted, a
// per-value occurrence count and the transition count table, and
// slides both window ends to the requested window, so a sequence of
// fits whose windows move forward and overlap costs O(Δ + D²) per fit,
// where Δ is how far the ends moved and D the number of distinct
// buckets. A window that moves backwards, shrinks its end or jumps past
// the old one re-counts from scratch. The counts are integer-valued
// floats, so arriving at a window incrementally or in one pass is
// value-identical, and the produced models are bit-identical to
// Fit(Quantize(window, Quantum)) (TestWindowFitterMatchesFit pins
// this). The oracle's Markov-Daly policy, the batched permutation
// evaluator and the streaming grid refit trailing windows that share
// almost all their samples, which makes a from-scratch fit per call the
// dominant cost.
//
// A WindowFitter is not safe for concurrent use.
type WindowFitter struct {
	step int64

	sorted []float64 // distinct bucketed values, ascending
	gid    []int32   // state id of sample off+i, an index into sorted
	off    int       // absolute index of gid[0]
	keep   int       // Forget mark: the earliest window start Fit accepts

	occ     []int32   // occurrences of each distinct value in [lo, hi)
	ccounts []float64 // transition counts over the pairs inside [lo, hi)
	spare   []float64 // the count table insertState swaps out, reused by the next one
	lo, hi  int       // the window occ and ccounts cover
	gsel    []int32   // per-fit scratch: selected column states
}

// Init restarts the fitter on a raw price column sampled every step
// seconds, bucketing it and precomputing its distinct-value structure
// in one pass; the column is only read. Buffers are reused across
// calls. Prices must be NaN-free (every trace admitted by
// trace.Validate is): distinct states are extracted by sorting rather
// than hashing, and the two agree only on NaN-free input.
func (f *WindowFitter) Init(prices []float64, step int64) {
	f.step = step
	f.off, f.keep = 0, 0
	// Distinct bucketed values, ascending. Equality here matches Fit's
	// map-key equality (==, which also collapses -0 and +0). Bucketed
	// price columns carry few distinct values, so building the set by
	// binary-search insertion beats sorting the whole column; columns
	// with many distinct values fall back to sort-and-compact. Price
	// columns are step functions, so most samples repeat their
	// predecessor and skip the search, here and in Append.
	const insertionMax = 64
	f.sorted = f.sorted[:0]
	for t, p := range prices {
		if t > 0 && p == prices[t-1] {
			continue
		}
		p = math.Round(p/Quantum) * Quantum
		i := sort.SearchFloat64s(f.sorted, p)
		if i < len(f.sorted) && f.sorted[i] == p {
			continue
		}
		if len(f.sorted) == insertionMax {
			f.sorted = f.sorted[:0]
			break
		}
		f.sorted = slices.Insert(f.sorted, i, p)
	}
	if len(f.sorted) == 0 && len(prices) > 0 {
		tmp := Quantize(prices, Quantum)
		sort.Float64s(tmp)
		for i, p := range tmp {
			if i == 0 || p != f.sorted[len(f.sorted)-1] {
				f.sorted = append(f.sorted, p)
			}
		}
	}
	d := len(f.sorted)
	f.gid = slices.Grow(f.gid[:0], len(prices))
	f.occ = slices.Grow(f.occ[:0], d)[:d]
	f.ccounts = slices.Grow(f.ccounts[:0], d*d)[:d*d]
	f.recount(0)
	for _, p := range prices {
		f.Append(p) // every value is known: this only indexes samples
	}
}

// Len returns the number of samples taken since Init, forgotten or not.
func (f *WindowFitter) Len() int { return f.off + len(f.gid) }

// Forgotten returns the Forget mark, the earliest start Fit accepts.
func (f *WindowFitter) Forgotten() int { return f.keep }

// Retained returns how many sample ids the fitter holds.
func (f *WindowFitter) Retained() int { return len(f.gid) }

// recount empties the counted window, placing it at lo.
func (f *WindowFitter) recount(lo int) {
	clear(f.occ)
	clear(f.ccounts)
	f.lo, f.hi = lo, lo
}

// Append takes the next raw sample: O(log D), or one O(n + D²) remap of
// the held ids and the count table for a brand-new bucket. Fits after
// Appends are bit-identical to a fresh Init over the grown column.
func (f *WindowFitter) Append(p float64) {
	p = math.Round(p/Quantum) * Quantum
	if n := len(f.gid); n > 0 && f.sorted[f.gid[n-1]] == p {
		f.gid = append(f.gid, f.gid[n-1])
		return
	}
	g := sort.SearchFloat64s(f.sorted, p)
	if g == len(f.sorted) || f.sorted[g] != p {
		f.insertState(g, p)
	}
	f.gid = append(f.gid, int32(g))
}

// Forget declares that no later Fit starts before sample lo (a lo at or
// behind the mark changes nothing). Ids before lo are dropped once they
// are over half of those held, so at most twice the span lo..Len stays;
// the next Fit recounts a counted window that starts before lo.
func (f *WindowFitter) Forget(lo int) {
	lo = min(lo, f.Len())
	if lo <= f.keep {
		return
	}
	f.keep = lo
	if f.lo < lo {
		f.recount(lo)
	}
	if d := lo - f.off; d > len(f.gid)/2 {
		f.gid = f.gid[:copy(f.gid, f.gid[d:])]
		if cap(f.gid) > 4*len(f.gid) {
			f.gid = append(make([]int32, 0, 2*len(f.gid)), f.gid...)
		}
		f.off = lo
	}
}

// insertState grows the distinct-value structure by one value at sorted
// position g: ids at or above g shift up in the sample map, the
// occurrence counts and the transition table, and the new value starts
// with no occurrences.
func (f *WindowFitter) insertState(g int, p float64) {
	d := len(f.sorted)
	f.sorted = slices.Insert(f.sorted, g, p)
	f.occ = slices.Insert(f.occ, g, 0)
	for i, id := range f.gid {
		if id >= int32(g) {
			f.gid[i] = id + 1
		}
	}
	nd := d + 1
	counts := slices.Grow(f.spare[:0], nd*nd)[:nd*nd]
	clear(counts)
	for r := 0; r < d; r++ {
		nr := r
		if r >= g {
			nr++
		}
		for c := 0; c < d; c++ {
			nc := c
			if c >= g {
				nc++
			}
			counts[nr*nd+nc] = f.ccounts[r*d+c]
		}
	}
	f.ccounts, f.spare = counts, f.ccounts
}

// Fit estimates the chain from the bucketed samples [lo, hi), exactly
// like Fit(Quantize(window, 0.05)) over the raw samples; an empty
// window reports ErrNoHistory, and a window that starts behind the
// Forget mark or ends past Len an error. When reuse is non-nil its
// storage is recycled for the result (the caller must be done with it);
// the returned model is reuse itself in that case.
func (f *WindowFitter) Fit(lo, hi int, reuse *Model) (*Model, error) {
	if hi <= lo {
		return nil, ErrNoHistory
	}
	if f.step <= 0 {
		return nil, fmt.Errorf("markov: non-positive step %d", f.step)
	}
	if lo < f.keep || hi > f.Len() {
		return nil, fmt.Errorf("markov: window [%d, %d) outside the fitter's samples [%d, %d)", lo, hi, f.keep, f.Len())
	}
	if reuse == nil {
		reuse = &Model{}
	}
	// Slide the counted window to [lo, hi): grow the end first, then
	// drop the samples before lo. Every pair inside the new window is
	// counted once, and every pair that left it is uncounted once.
	d := len(f.sorted)
	if lo < f.lo || lo >= f.hi || hi < f.hi {
		f.recount(lo)
	}
	for t := f.hi - f.off; t < hi-f.off; t++ {
		g := f.gid[t]
		f.occ[g]++
		if t > f.lo-f.off {
			f.ccounts[int(f.gid[t-1])*d+int(g)]++
		}
	}
	for t := f.lo - f.off; t < lo-f.off; t++ {
		g := f.gid[t]
		f.occ[g]--
		f.ccounts[int(g)*d+int(f.gid[t+1])]--
	}
	f.lo, f.hi = lo, hi
	// The window's distinct states are the column values it holds, in
	// the same ascending order Fit would sort them into. Transitions
	// among them are exactly the table entries at their column-state
	// ids: every sample in the window maps to a selected state, so no
	// counted transition is dropped by the filter.
	states := slices.Grow(reuse.States[:0], d)
	f.gsel = f.gsel[:0]
	for g, c := range f.occ {
		if c > 0 {
			f.gsel = append(f.gsel, int32(g))
			states = append(states, f.sorted[g])
		}
	}
	nn := len(f.gsel)

	// Row storage: one flat backing array, rows sliced out of it. When
	// the reused model was produced by a WindowFitter its rows are
	// contiguous slices of one array whose capacity row 0 still
	// reaches, so the backing can be recovered; models from plain Fit
	// just reallocate.
	var flat []float64
	if len(reuse.Trans) > 0 {
		flat = reuse.Trans[0][:0]
	}
	if cap(flat) < nn*nn {
		flat = make([]float64, nn*nn)
	}
	flat = flat[:nn*nn]
	trans := slices.Grow(reuse.Trans[:0], nn)
	for i, gi := range f.gsel {
		row := flat[i*nn : (i+1)*nn]
		base := int(gi) * d
		var total float64
		for j, gj := range f.gsel {
			c := f.ccounts[base+int(gj)]
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
