package trace

import (
	"math/rand"
	"testing"
)

// colSet builds an aligned two-zone set with hand-picked prices around
// a 0.30 bid boundary.
func colSet(t *testing.T) *Set {
	t.Helper()
	a := NewSeries("a", 1000*DefaultStep, []float64{0.10, 0.40, 0.20, 0.20, 0.50, 0.25})
	b := NewSeries("b", 1000*DefaultStep, []float64{0.35, 0.35, 0.15, 0.45, 0.10, 0.10})
	return MustNewSet(a, b)
}

// TestColumnsIndexMatchesSeries pins the clamping contract: Columns.Index
// and Columns.PriceAt agree with Series.Index / Series.PriceAt at every
// probe time, including the edges (before Start, at Start, at End()-step,
// exactly at End(), past End()) and on a single-sample series.
func TestColumnsIndexMatchesSeries(t *testing.T) {
	single := MustNewSet(NewSeries("s", 500, []float64{0.42}))
	single.Series[0].Step = 60

	for _, tc := range []struct {
		name string
		set  *Set
	}{
		{"multi", colSet(t)},
		{"single-sample", single},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cols := NewColumns(tc.set)
			step := tc.set.Step()
			probes := []int64{
				tc.set.Start() - 10*step, tc.set.Start() - 1,
				tc.set.Start(), tc.set.Start() + 1,
				tc.set.Start() + step, tc.set.Start() + step/2,
				tc.set.End() - step, tc.set.End() - 1,
				tc.set.End(), // exactly at End: clamps to the final sample
				tc.set.End() + 1, tc.set.End() + 7*step,
			}
			for zi, s := range tc.set.Series {
				for _, at := range probes {
					if got, want := cols.Index(at), s.Index(at); got != want {
						t.Errorf("zone %d Index(%d) = %d, Series.Index = %d", zi, at, got, want)
					}
					if got, want := cols.cols[zi][cols.Index(at)], s.PriceAt(at); got != want {
						t.Errorf("zone %d price at %d = %v, Series.PriceAt = %v", zi, at, got, want)
					}
				}
			}
		})
	}
}

// TestColumnsZeroLength pins the zero-length window: a Slice(t, t) cut
// produces an empty set, and Index stays in bounds (0) like
// Series.Index does.
func TestColumnsZeroLength(t *testing.T) {
	set := colSet(t)
	cut := set.Slice(set.Start()+2*set.Step(), set.Start()+2*set.Step())
	if cut.Series[0].Len() != 0 {
		t.Fatalf("Slice(t, t) length = %d, want 0", cut.Series[0].Len())
	}
	cols := NewColumns(cut)
	if cols.Steps() != 0 {
		t.Fatalf("Steps() = %d, want 0", cols.Steps())
	}
	for _, at := range []int64{cut.Start() - 1, cut.Start(), cut.Start() + 1} {
		if got := cols.Index(at); got != cut.Series[0].Index(at) {
			t.Errorf("Index(%d) = %d, Series.Index = %d", at, got, cut.Series[0].Index(at))
		}
	}
	if cols.End() != cols.Start() {
		t.Errorf("End() = %d, want Start() = %d", cols.End(), cols.Start())
	}
}

// TestBidIndexMatchesSeries pins BidIndex against the Series
// availability primitives on a randomized trace: Up against upAt,
// upIntervals (its flips) against Series.UpIntervals, and the
// nextUp/NextChange skip tables against reference scans.
func TestBidIndexMatchesSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	prices := make([]float64, 400)
	for i := range prices {
		prices[i] = 0.05 * float64(1+rng.Intn(12)) // 0.05 .. 0.60
	}
	s := NewSeries("z", 12345*DefaultStep, prices)
	set := MustNewSet(s)
	cols := NewColumns(set)

	for _, bid := range []float64{0.01, 0.05, 0.25, 0.60, 1.00} {
		var bi BidIndex
		bi.Build(cols, 0, bid)
		for i := 0; i < len(prices); i++ {
			at := s.Epoch + int64(i)*s.Step
			if got, want := bi.Up(i), s.upAt(at, bid); got != want {
				t.Fatalf("bid %v Up(%d) = %v, upAt = %v", bid, i, got, want)
			}
			wantNext := len(prices)
			for j := i; j < len(prices); j++ {
				if prices[j] <= bid {
					wantNext = j
					break
				}
			}
			if got := bi.nextUp(i); got != wantNext {
				t.Fatalf("bid %v nextUp(%d) = %d, want %d", bid, i, got, wantNext)
			}
			wantChg := len(prices)
			for j := i + 1; j < len(prices); j++ {
				if (prices[j] <= bid) != (prices[i] <= bid) {
					wantChg = j
					break
				}
			}
			if got := bi.NextChange(i); got != wantChg {
				t.Fatalf("bid %v NextChange(%d) = %d, want %d", bid, i, got, wantChg)
			}
		}
		got := bi.upIntervals(cols)
		want := s.UpIntervals(bid)
		if len(got) != len(want) {
			t.Fatalf("bid %v UpIntervals count = %d, want %d", bid, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("bid %v UpIntervals[%d] = %+v, want %+v", bid, i, got[i], want[i])
			}
		}
	}
}

// TestAvailIndexReuse checks that the cache hands back the same index
// per (zone, bid) pair, and that Reset recycles indexes without stale
// answers after the view moves to a different window.
func TestAvailIndexReuse(t *testing.T) {
	set := colSet(t)
	cols := NewColumns(set)
	x := NewAvailIndex(cols)

	a := x.Get(0, 0.30)
	if b := x.Get(0, 0.30); b != a {
		t.Fatalf("second Get returned a different index")
	}
	if c := x.Get(1, 0.30); c == a {
		t.Fatalf("different zone shares an index")
	}

	cut := set.Slice(set.Start()+2*set.Step(), set.End())
	cols.Reset(cut)
	x.Reset(cols)
	bi := x.Get(0, 0.30)
	for i := 0; i < cut.Series[0].Len(); i++ {
		at := cut.Start() + int64(i)*cut.Step()
		if got, want := bi.Up(i), cut.Series[0].upAt(at, 0.30); got != want {
			t.Fatalf("after Reset Up(%d) = %v, want %v", i, got, want)
		}
	}
}

// nextUp returns the first step at or after i where the zone is
// available, or Steps() when it never is again: i itself when it is up,
// otherwise the next change, which can only be to up.
func (bi *BidIndex) nextUp(i int) int {
	if bi.Up(i) {
		return i
	}
	return bi.NextChange(i)
}

// upIntervals reconstructs the maximal availability intervals from the
// index's flips; they must agree with Series.UpIntervals at the same
// bid.
func (bi *BidIndex) upIntervals(c *Columns) []Interval {
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
