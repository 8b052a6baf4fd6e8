package trace

import "sort"

// Columnar view over a Set for batched replay. The evaluation hot path
// (internal/core's batched estimator) prices every sibling permutation
// of a decision point in one pass over the price window; what it needs
// from the trace is struct-of-arrays access — per-zone price columns
// indexed by step — plus, per (zone, candidate bid), the availability
// flips, so a replay skips the stretches where nothing changes without
// re-deriving them per permutation. Columns and BidIndex provide
// exactly that, aliasing the Set's price storage (no copies) and
// reusing their own buffers across decisions via Reset.

// Columns is a struct-of-arrays view over an aligned Set: one price
// column per zone plus the shared time grid. The view aliases the Set's
// price storage; it is cheap to build and must not outlive mutations of
// the underlying Set. Index and PriceAt follow the exact clamping
// semantics of Series.Index / Series.PriceAt, so a consumer switching
// between the row view and the column view sees identical prices at
// every time, including the edge cases (times at or past End, before
// Start, zero-length windows, single-sample series).
type Columns struct {
	set   *Set
	cols  [][]float64
	start int64
	step  int64
	n     int
}

// NewColumns builds the columnar view of the set.
func NewColumns(set *Set) *Columns {
	c := &Columns{}
	c.Reset(set)
	return c
}

// Reset re-points the view at a new set, reusing the column-header
// buffer.
func (c *Columns) Reset(set *Set) {
	c.set = set
	c.cols = c.cols[:0]
	for _, s := range set.Series {
		c.cols = append(c.cols, s.Prices)
	}
	c.start = set.Start()
	c.step = set.Step()
	c.n = set.Series[0].Len()
}

// NumZones returns the number of price columns.
func (c *Columns) NumZones() int { return len(c.cols) }

// Steps returns the number of samples per column.
func (c *Columns) Steps() int { return c.n }

// Start returns the absolute time of the first sample.
func (c *Columns) Start() int64 { return c.start }

// Step returns the sampling interval in seconds.
func (c *Columns) Step() int64 { return c.step }

// End returns the absolute time just past the last sample.
func (c *Columns) End() int64 { return c.start + int64(c.n)*c.step }

// Col returns the zone's price column (aliased, read-only by
// convention).
func (c *Columns) Col(zone int) []float64 { return c.cols[zone] }

// States returns the zone's chain states (Series.States), aligned with
// Col(zone).
func (c *Columns) States(zone int) (ids []int32, vals []float64) {
	return c.set.Series[zone].States()
}

// Index returns the sample index holding time t with the same clamping
// as Series.Index: times before Start map to 0 and times at or past End
// map to the final sample. A zero-length view returns 0.
func (c *Columns) Index(t int64) int {
	if c.n == 0 {
		return 0
	}
	i := (t - c.start) / c.step
	if i < 0 {
		return 0
	}
	if i >= int64(c.n) {
		return c.n - 1
	}
	return int(i)
}

// Price returns the zone's price at sample index i.
func (c *Columns) Price(zone, i int) float64 { return c.cols[zone][i] }

// PriceAt returns the zone's price in force at absolute time t,
// clamping exactly like Series.PriceAt.
func (c *Columns) PriceAt(zone int, t int64) float64 {
	return c.cols[zone][c.Index(t)]
}

// BidIndex is the availability index of one (zone, bid) pair: whether
// the zone's price admits the bid at a step (price ≤ bid, the paper's
// "up" condition), plus the steps where that availability flips, so a
// replay can jump straight to the end of a stretch over which every
// zone's up/down state is constant.
//
// The index stores only the flips, not a per-step table: an up bit is
// one comparison against the aliased price column, and the next change
// after a step is found in the flip list, which on a price column is
// orders of magnitude shorter than the window. A resident streaming
// index therefore grows with the market's availability flips rather
// than with its ticks. An index slides with its window: Append covers
// the samples added at the back and Drop forgets those leaving at the
// front, each in time proportional to what moved. NextChange keeps its
// place in the list between calls, so a replay's forward-moving queries
// cost O(1) amortized; the index is therefore not safe for concurrent
// queries.
type BidIndex struct {
	// Zone is the indexed zone.
	Zone int
	// Bid is the indexed candidate bid.
	Bid float64

	col   []float64 // the zone's price column (aliased)
	n     int       // steps covered
	flips []int32   // ascending steps i > 0 whose availability differs from step i-1
	up0   bool      // availability at step 0, which Drop reads instead of the column
	nUp   int
	at    int // flips index of the last NextChange answer
}

// Build populates the index for the (zone, bid) pair over the columnar
// view, reusing the receiver's buffers.
func (bi *BidIndex) Build(c *Columns, zone int, bid float64) {
	bi.Zone = zone
	bi.Bid = bid
	bi.n = 0
	bi.flips = bi.flips[:0]
	bi.nUp = 0
	bi.at = 0
	bi.Append(c, 0)
}

// Append extends the index over the view's steps [from, Steps()), where
// from must be the length the index currently covers, at O(1) per
// appended step. The view's column may have moved (a tape append can
// reallocate it); the index re-aliases it.
func (bi *BidIndex) Append(c *Columns, from int) {
	col := c.cols[bi.Zone][:c.n]
	bi.col = col
	for i := from; i < c.n; i++ {
		u := col[i] <= bi.Bid
		if u {
			bi.nUp++
		}
		if i == 0 {
			bi.up0 = u
		} else if u != (col[i-1] <= bi.Bid) {
			bi.flips = append(bi.flips, int32(i))
		}
	}
	bi.n = c.n
}

// Drop forgets the index's first d steps (all of them when d exceeds
// Len): step d becomes step 0, at O(flips) cost. It reads no prices, so
// the window's storage may already have moved under the index; the
// next Append re-aliases the column, and queries must wait for it.
func (bi *BidIndex) Drop(d int) {
	d = min(d, bi.n)
	if d <= 0 {
		return
	}
	up, from, k := bi.up0, 0, 0
	for ; k < len(bi.flips) && int(bi.flips[k]) <= d; k++ {
		f := int(bi.flips[k])
		if up {
			bi.nUp -= f - from
		}
		up, from = !up, f
	}
	if up {
		bi.nUp -= d - from
	}
	bi.up0 = up
	bi.flips = bi.flips[:copy(bi.flips, bi.flips[k:])]
	for j := range bi.flips {
		bi.flips[j] -= int32(d)
	}
	bi.col = bi.col[d:]
	bi.n -= d
	bi.at = 0
}

// Len returns how many steps the index covers.
func (bi *BidIndex) Len() int { return bi.n }

// UpCount returns how many covered steps are available — the running
// availability count a streaming consumer reads instead of rescanning
// the window.
func (bi *BidIndex) UpCount() int { return bi.nUp }

// Up reports whether the zone is available at step i.
func (bi *BidIndex) Up(i int) bool { return bi.col[i] <= bi.Bid }

// NextUp returns the first step at or after i where the zone is
// available, or Steps() when it never is again: i itself when it is up,
// otherwise the next change, which can only be to up.
func (bi *BidIndex) NextUp(i int) int {
	if bi.Up(i) {
		return i
	}
	return bi.NextChange(i)
}

// NextChange returns the first step after i where the zone's
// availability differs from its availability at i, or Steps() when it
// never changes again. An event-driven replay uses this to bound the
// stretch over which every zone's up/down state is constant.
func (bi *BidIndex) NextChange(i int) int {
	f, k := bi.flips, bi.at
	if k > 0 && int(f[k-1]) > i {
		// Behind the last answer (a new replay): binary search.
		k = sort.Search(k, func(m int) bool { return int(f[m]) > i })
	}
	for k < len(f) && int(f[k]) <= i {
		k++
	}
	bi.at = k
	if k < len(f) {
		return int(f[k])
	}
	return bi.n
}

// UpIntervals reconstructs the maximal availability intervals from the
// index; it must agree with Series.UpIntervals at the same bid (the
// columnar view's equivalence test exercises this).
func (bi *BidIndex) UpIntervals(c *Columns) []Interval {
	var out []Interval
	if bi.n == 0 {
		return out
	}
	at := func(i int) int64 { return c.start + int64(i)*c.step }
	open, from := bi.Up(0), 0
	for _, f := range bi.flips {
		if open {
			out = append(out, Interval{Start: at(from), End: at(int(f))})
		}
		open, from = !open, int(f)
	}
	if open {
		out = append(out, Interval{Start: at(from), End: c.End()})
	}
	return out
}

// AvailIndex caches BidIndex instances per (zone, bid) pair for one
// columnar view. Reset recycles every index's buffers into a free list,
// so the steady state of a caller evaluating the same grid of bids over
// successive windows allocates nothing. The working set is a bid grid
// times a handful of zones, so lookups scan the pair list linearly —
// cheaper than hashing a (zone, float64) key at these sizes.
type AvailIndex struct {
	cols  *Columns
	pairs []*BidIndex
	free  []*BidIndex
}

// NewAvailIndex returns an empty availability cache for the view.
func NewAvailIndex(cols *Columns) *AvailIndex {
	return &AvailIndex{cols: cols}
}

// Reset re-points the cache at a (possibly re-Reset) columnar view and
// recycles all cached indexes.
func (x *AvailIndex) Reset(cols *Columns) {
	x.cols = cols
	for _, bi := range x.pairs {
		bi.col = nil // Build re-aliases; a spare must not pin the old window
	}
	x.free = append(x.free, x.pairs...)
	clear(x.pairs)
	x.pairs = x.pairs[:0]
}

// Get returns the availability index of the (zone, bid) pair, building
// it on first use.
func (x *AvailIndex) Get(zone int, bid float64) *BidIndex {
	for _, bi := range x.pairs {
		if bi.Zone == zone && bi.Bid == bid {
			return bi
		}
	}
	var bi *BidIndex
	if n := len(x.free); n > 0 {
		bi = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		bi = &BidIndex{}
	}
	bi.Build(x.cols, zone, bid)
	x.pairs = append(x.pairs, bi)
	return bi
}

// Slide moves every cached index onto the view after its window lost
// its first drop samples and grew at the back (a streaming tick slides
// by 0). Indexes built by a later Get cover the new window already;
// Slide brings the resident ones up to date in time proportional to
// the samples that moved and the flips that left.
func (x *AvailIndex) Slide(drop int) {
	for _, bi := range x.pairs {
		bi.Drop(drop)
		bi.Append(x.cols, bi.Len())
	}
}
