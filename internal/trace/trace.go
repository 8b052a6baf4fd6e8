// Package trace represents Amazon EC2 spot price histories.
//
// A Series holds the spot price of one availability zone as a uniformly
// sampled step function: the paper (§5) samples zone prices every five
// minutes and notes that intra-interval movements are rare enough to
// ignore. A Set bundles the series of several zones over a common time
// range, which is the form every policy and experiment in this repository
// consumes.
//
// All times are int64 seconds relative to the epoch of the trace. Prices
// are float64 dollars per instance-hour.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// DefaultStep is the sampling interval used throughout the paper: 5 minutes.
const DefaultStep int64 = 300

// Hour is one billing hour in seconds.
const Hour int64 = 3600

// Series is a uniformly sampled spot price history for a single zone.
// The price during [Epoch + i*Step, Epoch + (i+1)*Step) is Prices[i].
type Series struct {
	// Zone names the availability zone, e.g. "us-east-1a".
	Zone string
	// Epoch is the absolute time of Prices[0] in seconds. Windows cut
	// from a longer trace keep the parent epoch so experiment logs can
	// be traced back to their position in the year.
	Epoch int64
	// Step is the sampling interval in seconds (> 0).
	Step int64
	// Prices holds one sample per step.
	Prices []float64

	// The chain states (States): those its owner keeps (held, ids and
	// vals; SetStates), or else the column of the root it was sliced
	// from, read from sample off on and built on first use.
	held bool
	ids  []int32
	vals []float64
	col  atomic.Pointer[column]
	off  int
}

// NewSeries constructs a Series with the default 5-minute step.
func NewSeries(zone string, epoch int64, prices []float64) *Series {
	return &Series{Zone: zone, Epoch: epoch, Step: DefaultStep, Prices: prices}
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Prices) }

// Duration returns the time covered by the series in seconds.
func (s *Series) Duration() int64 { return int64(len(s.Prices)) * s.Step }

// Start returns the absolute time of the first sample.
func (s *Series) Start() int64 { return s.Epoch }

// End returns the absolute time just past the last sample.
func (s *Series) End() int64 { return s.Epoch + s.Duration() }

// Index returns the sample index holding time t, clamped to the valid
// range. Times before the epoch map to 0 and times at or past End map to
// the final sample, so a simulator that runs slightly past a window edge
// sees a frozen final price instead of a panic.
func (s *Series) Index(t int64) int {
	if len(s.Prices) == 0 {
		return 0
	}
	i := (t - s.Epoch) / s.Step
	if i < 0 {
		return 0
	}
	if i >= int64(len(s.Prices)) {
		return len(s.Prices) - 1
	}
	return int(i)
}

// PriceAt returns the spot price in force at absolute time t.
func (s *Series) PriceAt(t int64) float64 {
	if len(s.Prices) == 0 {
		return math.NaN()
	}
	return s.Prices[s.Index(t)]
}

// Slice returns the sub-series covering [from, to). The bounds are
// clamped to the series range; the returned series shares the underlying
// price storage and chain-state column.
func (s *Series) Slice(from, to int64) *Series {
	if from < s.Epoch {
		from = s.Epoch
	}
	if to > s.End() {
		to = s.End()
	}
	if to < from {
		to = from
	}
	lo := (from - s.Epoch) / s.Step
	if lo < 0 {
		lo = 0
	}
	if lo > int64(len(s.Prices)) {
		lo = int64(len(s.Prices))
	}
	hi := (to - s.Epoch + s.Step - 1) / s.Step
	if hi > int64(len(s.Prices)) {
		hi = int64(len(s.Prices))
	}
	if hi < lo {
		hi = lo
	}
	out := &Series{
		Zone:   s.Zone,
		Epoch:  s.Epoch + lo*s.Step,
		Step:   s.Step,
		Prices: s.Prices[lo:hi],
	}
	if s.held {
		out.held, out.ids, out.vals = true, s.ids[lo:hi], s.vals
	} else {
		out.off = s.off + int(lo)
		out.col.Store(s.column())
	}
	return out
}

// Clone returns a deep copy of the series.
func (s *Series) Clone() *Series {
	p := make([]float64, len(s.Prices))
	copy(p, s.Prices)
	return &Series{Zone: s.Zone, Epoch: s.Epoch, Step: s.Step, Prices: p}
}

// Validate reports structural problems: non-positive step, negative or
// non-finite prices.
func (s *Series) Validate() error {
	if s.Step <= 0 {
		return fmt.Errorf("trace: series %q has non-positive step %d", s.Zone, s.Step)
	}
	for i, p := range s.Prices {
		if !ValidPrice(p) {
			return fmt.Errorf("trace: series %q sample %d is %g, not a finite non-negative price", s.Zone, i, p)
		}
	}
	return nil
}

// Changes returns the number of samples whose price differs from the
// previous sample, i.e. the number of observed price movements.
func (s *Series) Changes() int {
	n := 0
	for i := 1; i < len(s.Prices); i++ {
		if s.Prices[i] != s.Prices[i-1] {
			n++
		}
	}
	return n
}

// Set bundles the price series of several zones. All series must share
// the same epoch, step and length; NewSet enforces this.
type Set struct {
	Series []*Series
}

// ErrMisaligned reports that the series of a Set do not share a common
// epoch, step and length.
var ErrMisaligned = errors.New("trace: zone series are not aligned")

// NewSet builds a Set after checking that all series are aligned.
func NewSet(series ...*Series) (*Set, error) {
	if len(series) == 0 {
		return nil, errors.New("trace: empty set")
	}
	first := series[0]
	for _, s := range series[1:] {
		if s.Epoch != first.Epoch || s.Step != first.Step || len(s.Prices) != len(first.Prices) {
			return nil, fmt.Errorf("%w: %q vs %q", ErrMisaligned, first.Zone, s.Zone)
		}
	}
	return &Set{Series: series}, nil
}

// MustNewSet is NewSet that panics on error; for tests and generators
// that construct aligned series by design.
func MustNewSet(series ...*Series) *Set {
	set, err := NewSet(series...)
	if err != nil {
		panic(err)
	}
	return set
}

// Zones returns the zone names in order.
func (t *Set) Zones() []string {
	names := make([]string, len(t.Series))
	for i, s := range t.Series {
		names[i] = s.Zone
	}
	return names
}

// NumZones returns the number of zones.
func (t *Set) NumZones() int { return len(t.Series) }

// Step returns the common sampling interval.
func (t *Set) Step() int64 { return t.Series[0].Step }

// Start returns the common start time.
func (t *Set) Start() int64 { return t.Series[0].Start() }

// End returns the common end time.
func (t *Set) End() int64 { return t.Series[0].End() }

// Duration returns the covered time span in seconds.
func (t *Set) Duration() int64 { return t.Series[0].Duration() }

// PricesAt returns the price of every zone at absolute time t, in zone
// order.
func (t *Set) PricesAt(at int64) []float64 {
	out := make([]float64, len(t.Series))
	for i, s := range t.Series {
		out[i] = s.PriceAt(at)
	}
	return out
}

// Slice returns the Set restricted to [from, to).
func (t *Set) Slice(from, to int64) *Set {
	out := make([]*Series, len(t.Series))
	for i, s := range t.Series {
		out[i] = s.Slice(from, to)
	}
	return &Set{Series: out}
}

// Clone returns a deep copy of the set.
func (t *Set) Clone() *Set {
	out := make([]*Series, len(t.Series))
	for i, s := range t.Series {
		out[i] = s.Clone()
	}
	return &Set{Series: out}
}

// Rebase returns a deep copy of the set whose epoch is shifted so that
// absolute time start becomes time 0, as a live feed would see it.
func (t *Set) Rebase(start int64) *Set {
	out := t.Clone()
	for _, s := range out.Series {
		s.Epoch -= start
	}
	return out
}

// Validate validates every series and the alignment invariant.
func (t *Set) Validate() error {
	if len(t.Series) == 0 {
		return errors.New("trace: empty set")
	}
	first := t.Series[0]
	for _, s := range t.Series {
		if err := s.Validate(); err != nil {
			return err
		}
		if s.Epoch != first.Epoch || s.Step != first.Step || len(s.Prices) != len(first.Prices) {
			return fmt.Errorf("%w: %q vs %q", ErrMisaligned, first.Zone, s.Zone)
		}
	}
	return nil
}
