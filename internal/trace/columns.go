package trace

import "slices"

// Columnar view over a Set for batched replay. The evaluation hot path
// (internal/core's batched estimator) prices every sibling permutation
// of a decision point in one pass over the price window; what it needs
// from the trace is struct-of-arrays access — per-zone price columns
// indexed by step — plus, per (zone, candidate bid), a precomputed
// up/down index so availability at any step resolves by lookup instead
// of a price comparison re-derived per permutation. Columns and
// BidIndex provide exactly that, aliasing the Set's price storage (no
// copies) and reusing their own buffers across decisions via Reset.

// Columns is a struct-of-arrays view over an aligned Set: one price
// column per zone plus the shared time grid. The view aliases the Set's
// price storage; it is cheap to build and must not outlive mutations of
// the underlying Set. Index and PriceAt follow the exact clamping
// semantics of Series.Index / Series.PriceAt, so a consumer switching
// between the row view and the column view sees identical prices at
// every time, including the edge cases (times at or past End, before
// Start, zero-length windows, single-sample series).
type Columns struct {
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

// BidIndex is the precomputed availability index of one (zone, bid)
// pair: per step, whether the zone's price admits the bid (price ≤ bid,
// the paper's "up" condition), plus a next-up skip table so a replay
// whose zones are all down can jump directly to the next step where one
// becomes available.
//
// The skip tables store open runs as a -1 sentinel ("no such step yet")
// rather than the window length, which makes the index append-aware:
// Append extends it tick by tick in amortized O(1) per step — every
// entry is written at most twice, once at its own append and once when
// the run it opens is closed by a later step — while NextUp/NextChange
// keep reporting the current Steps() for open runs, exactly as a fresh
// Build over the grown window would.
type BidIndex struct {
	// Zone is the indexed zone.
	Zone int
	// Bid is the indexed candidate bid.
	Bid float64

	up   []bool
	next []int32 // first up step at or after i; -1 while none yet
	chg  []int32 // first availability flip after i; -1 while none yet
	nUp  int
}

// Build populates the index for the (zone, bid) pair over the columnar
// view, reusing the receiver's buffers. One backward pass fills every
// table: walking from the last step, the next up step and the next
// availability flip are known when each entry is written, so no entry
// is patched later as Append's are.
func (bi *BidIndex) Build(c *Columns, zone int, bid float64) {
	bi.Zone = zone
	bi.Bid = bid
	n := c.n
	bi.up = slices.Grow(bi.up[:0], n)[:n]
	bi.next = slices.Grow(bi.next[:0], n)[:n]
	bi.chg = slices.Grow(bi.chg[:0], n)[:n]
	up, next, chg, col := bi.up, bi.next, bi.chg, c.cols[zone][:n]
	nUp, nextUp, nextChg := 0, int32(-1), int32(-1)
	later := false // availability at i+1
	for i := n - 1; i >= 0; i-- {
		u := col[i] <= bid
		if u {
			nUp++
			nextUp = int32(i)
		}
		if i+1 < n && u != later {
			nextChg = int32(i + 1)
		}
		up[i], next[i], chg[i] = u, nextUp, nextChg
		later = u
	}
	bi.nUp = nUp
}

// Append extends the index over the view's steps [from, Steps()), where
// from must be the length the index currently covers. Amortized cost is
// O(1) per appended step: an up arrival closes the trailing next-up
// run, an availability flip closes the trailing equal-run, and each
// entry belongs to at most one such run.
func (bi *BidIndex) Append(c *Columns, from int) {
	col := c.cols[bi.Zone]
	for i := from; i < c.n; i++ {
		u := col[i] <= bi.Bid
		bi.up = append(bi.up, u)
		bi.chg = append(bi.chg, -1)
		if u {
			bi.nUp++
			bi.next = append(bi.next, int32(i))
			for j := i - 1; j >= 0 && bi.next[j] < 0; j-- {
				bi.next[j] = int32(i)
			}
		} else {
			bi.next = append(bi.next, -1)
		}
		if i > 0 && u != bi.up[i-1] {
			for j := i - 1; j >= 0 && bi.chg[j] < 0; j-- {
				bi.chg[j] = int32(i)
			}
		}
	}
}

// Len returns how many steps the index covers.
func (bi *BidIndex) Len() int { return len(bi.up) }

// UpCount returns how many covered steps are available — the running
// availability count a streaming consumer reads instead of rescanning
// the window.
func (bi *BidIndex) UpCount() int { return bi.nUp }

// Up reports whether the zone is available at step i.
func (bi *BidIndex) Up(i int) bool { return bi.up[i] }

// NextUp returns the first step at or after i where the zone is
// available, or Steps() when it never is again.
func (bi *BidIndex) NextUp(i int) int {
	if v := bi.next[i]; v >= 0 {
		return int(v)
	}
	return len(bi.up)
}

// NextChange returns the first step after i where the zone's
// availability differs from its availability at i, or Steps() when it
// never changes again. An event-driven replay uses this to bound the
// stretch over which every zone's up/down state is constant.
func (bi *BidIndex) NextChange(i int) int {
	if v := bi.chg[i]; v >= 0 {
		return int(v)
	}
	return len(bi.up)
}

// UpIntervals reconstructs the maximal availability intervals from the
// index; it must agree with Series.UpIntervals at the same bid (the
// columnar view's equivalence test exercises this).
func (bi *BidIndex) UpIntervals(c *Columns) []Interval {
	var out []Interval
	open := false
	var start int64
	for i := 0; i < len(bi.up); i++ {
		t := c.start + int64(i)*c.step
		if bi.up[i] {
			if !open {
				open = true
				start = t
			}
		} else if open {
			open = false
			out = append(out, Interval{Start: start, End: t})
		}
	}
	if open {
		out = append(out, Interval{Start: start, End: c.End()})
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
	x.free = append(x.free, x.pairs...)
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

// Extend appends the view's new trailing steps to every cached index
// after the underlying columns grew (e.g. a streaming tick). Indexes
// built by a later Get cover the grown window already; Extend brings
// the resident ones up to date in O(pairs) amortized.
func (x *AvailIndex) Extend() {
	for _, bi := range x.pairs {
		bi.Append(x.cols, bi.Len())
	}
}
