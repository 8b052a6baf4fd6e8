package trace

import (
	"fmt"
	"math"
)

// Tape is an append-only columnar price store for streaming
// consumption: the price feed delivers one sample row per tick, the
// tape owns the per-zone columns it accretes them into, and the
// evaluation layers read the accumulated history through the usual Set
// and Columns views. It is the mutable counterpart of a Set — a Set
// slices windows off a fixed history, a Tape grows one tick at a time —
// and exists so the streaming evaluator can delta-update availability
// indexes and resident replay state instead of rebuilding them per
// request.
//
// A Tape is not safe for concurrent use; the streaming pipeline owns it
// from a single tick goroutine.
type Tape struct {
	zones  []string
	start  int64
	step   int64
	cols   [][]float64
	states []Buckets // each column's chain states

	series []*Series
	set    Set
}

// NewTape returns an empty tape for the zones, with the first sample to
// arrive at absolute time start and subsequent samples every step
// seconds.
func NewTape(zones []string, start, step int64) (*Tape, error) {
	if len(zones) == 0 {
		return nil, fmt.Errorf("trace: tape needs at least one zone")
	}
	if step <= 0 {
		return nil, fmt.Errorf("trace: tape needs a positive step, got %d", step)
	}
	t := &Tape{
		zones:  append([]string(nil), zones...),
		start:  start,
		step:   step,
		cols:   make([][]float64, len(zones)),
		states: make([]Buckets, len(zones)),
		series: make([]*Series, len(zones)),
	}
	for i, z := range zones {
		t.series[i] = &Series{Zone: z, Epoch: start, Step: step}
	}
	t.set.Series = t.series
	return t, nil
}

// Zones returns the zone names in column order.
func (t *Tape) Zones() []string { return t.zones }

// Len returns the number of appended ticks.
func (t *Tape) Len() int { return len(t.cols[0]) }

// Start returns the absolute time of the first sample.
func (t *Tape) Start() int64 { return t.start }

// Step returns the sampling interval in seconds.
func (t *Tape) Step() int64 { return t.step }

// End returns the absolute time just past the last sample.
func (t *Tape) End() int64 { return t.start + int64(t.Len())*t.step }

// Append accretes one price row (one sample per zone, column order),
// rejecting rows a trace.Validate would reject — non-finite or negative
// prices — so everything downstream keeps the Set invariants.
func (t *Tape) Append(prices []float64) error {
	if len(prices) != len(t.cols) {
		return fmt.Errorf("trace: tape row has %d prices for %d zones", len(prices), len(t.cols))
	}
	for i, p := range prices {
		if !ValidPrice(p) {
			return fmt.Errorf("trace: tape row price %d (%q) is %g, not a finite non-negative price", i, t.zones[i], p)
		}
	}
	for i, p := range prices {
		t.cols[i] = append(t.cols[i], p)
		t.states[i].Add(p)
	}
	return nil
}

// ValidPrice reports whether p can be a spot price sample: finite and
// non-negative. It is the one price check of every ingest path.
func ValidPrice(p float64) bool {
	return p >= 0 && !math.IsInf(p, 1) // NaN and -Inf fail p >= 0
}

// Set returns the tape's current contents as an aligned Set aliasing
// the tape's storage. The view is only valid until the next Append;
// consumers that outlive a tick must Clone it.
func (t *Tape) Set() *Set {
	for i := range t.series {
		t.series[i].Prices = t.cols[i]
		t.series[i].SetStates(t.states[i].States())
	}
	return &t.set
}

// Trim is the retention rule of a streaming window: once the tape
// holds more than 2·keep rows it keeps only the trailing keep, advancing
// its start. The kept rows move to fresh columns, so a view sliced off
// the tape before the trim keeps its samples and states; the fresh
// columns number the kept rows' states anew, so a column's value table
// holds at most the states of its last 2·keep rows.
func (t *Tape) Trim(keep int) {
	n := t.Len()
	if keep < 1 || n <= 2*keep {
		return
	}
	drop := n - keep
	for i, col := range t.cols {
		t.cols[i] = append([]float64(nil), col[drop:]...)
		t.states[i] = Buckets{}
		for _, p := range t.cols[i] {
			t.states[i].Add(p)
		}
	}
	t.start += int64(drop) * t.step
	for _, s := range t.series {
		s.Epoch = t.start
	}
}
