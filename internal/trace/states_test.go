package trace

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"
	"testing"
)

// statePrices are the prices FuzzBucketColumn draws from: zero of both
// signs, tiny and huge finite prices, pairs of neighbours on either side
// of a rounding boundary and neighbours that round to one bucket.
var statePrices = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e-300, 0.0249999,
	0.025, math.Nextafter(0.025, 1), 0.075, math.Nextafter(0.075, 0), 0.27, 0.2749,
	0.81, 0.8100000000000001, 1.07, 3.07, 20.02, 1e12, 1e300, math.MaxFloat64,
}

// checkStates requires a state view to hold one state per price, each
// state's value Bucket of its prices, and equal prices' buckets to share
// a state while distinct ones do not.
func checkStates(t *testing.T, what string, prices []float64, ids []int32, vals []float64) {
	t.Helper()
	if len(ids) != len(prices) {
		t.Fatalf("%s: %d states for %d prices", what, len(ids), len(prices))
	}
	for i, p := range prices {
		if v := vals[ids[i]]; v != Bucket(p) {
			t.Fatalf("%s: sample %d (%g) in state %d of value %g, want %g", what, i, p, ids[i], v, Bucket(p))
		}
	}
	for id, v := range vals {
		for other := id + 1; other < len(vals); other++ {
			if vals[other] == v {
				t.Fatalf("%s: states %d and %d share value %g", what, id, other, v)
			}
		}
	}
}

// sameStates requires two views of one column to number states alike.
func sameStates(t *testing.T, what string, ids []int32, vals []float64, wantIDs []int32, wantVals []float64) {
	t.Helper()
	if len(ids) != len(wantIDs) {
		t.Fatalf("%s: %d states, want %d", what, len(ids), len(wantIDs))
	}
	for i := range ids {
		if ids[i] != wantIDs[i] || vals[ids[i]] != wantVals[wantIDs[i]] {
			t.Fatalf("%s: sample %d in state %d (%g), want %d (%g)", what, i, ids[i], vals[ids[i]], wantIDs[i], wantVals[wantIDs[i]])
		}
	}
}

// FuzzBucketColumn holds four builds of a price column's chain states
// equal: from scratch over a series, grown by appends (Buckets, a
// root series that grows after its first read, and a Tape), read
// through slices of the root, and carried through Tape.Trim, which
// numbers the kept rows' states anew.
func FuzzBucketColumn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add([]byte{5, 6, 5, 6, 7, 8, 7, 8, 3, 4, 3, 4, 0, 1, 0, 1, 200, 9, 10})
	f.Add([]byte{255, 254, 253, 252, 0, 0, 0, 0, 1, 1, 1, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2048 {
			return
		}
		prices := make([]float64, 0, len(data))
		for i, b := range data[1:] {
			p := statePrices[int(b)%len(statePrices)]
			if b >= 128 { // off the palette: any finite price of a byte pair
				var w [8]byte
				w[0], w[1] = b, data[i%len(data)]
				p = math.Abs(float64(binary.LittleEndian.Uint16(w[:])) / 977)
			}
			prices = append(prices, p)
		}
		root := NewSeries("z", 0, prices)
		ids, vals := root.States()
		checkStates(t, "scratch", prices, ids, vals)

		var col Buckets
		for _, p := range prices {
			col.Add(p)
		}
		cids, cvals := col.States()
		sameStates(t, "appended", cids, cvals, ids, vals)

		n := len(prices) / 2
		grown := NewSeries("z", 0, append([]float64(nil), prices[:n]...))
		grown.States()
		grown.Prices = append(grown.Prices, prices[n:]...)
		gids, gvals := grown.States()
		sameStates(t, "grown root", gids, gvals, ids, vals)

		for lo := 0; lo < len(prices); lo += 1 + int(data[0])%7 {
			hi := min(len(prices), lo+1+int(data[lo%len(data)])%32)
			sl := root.Slice(int64(lo)*DefaultStep, int64(hi)*DefaultStep)
			sids, svals := sl.States()
			sameStates(t, "slice", sids, svals, ids[lo:hi], vals)
			if mid := (lo + hi) / 2; mid > lo {
				inner := sl.Slice(int64(mid)*DefaultStep, int64(hi)*DefaultStep)
				iids, ivals := inner.States()
				sameStates(t, "slice of a slice", iids, ivals, ids[mid:hi], vals)
				jids, jvals, ok := JoinStates(root.Slice(int64(lo)*DefaultStep, int64(mid)*DefaultStep), inner)
				if !ok {
					t.Fatalf("slices [%d, %d) and [%d, %d) of one root do not join", lo, mid, mid, hi)
				}
				sameStates(t, "joined slices", jids, jvals, ids[lo:hi], vals)
			}
		}

		tape, err := NewTape([]string{"z"}, 0, DefaultStep)
		if err != nil {
			t.Fatal(err)
		}
		keep := 1 + int(data[0])%16
		for i, p := range prices {
			if err := tape.Append([]float64{p}); err != nil {
				t.Fatal(err)
			}
			if i%5 == 4 {
				tape.Trim(keep)
			}
			s := tape.Set().Series[0]
			tids, tvals := s.States()
			wids, wvals := NewSeries("z", 0, append([]float64(nil), s.Prices...)).States()
			sameStates(t, "tape", tids, tvals, wids, wvals)
			if len(tvals) > 2*keep+5 && tape.Len() <= 2*keep+5 {
				t.Fatalf("tape of %d rows keeps %d states", tape.Len(), len(tvals))
			}
		}
	})
}

// TestHeldStatesSlice pins a series that carries its owner's states
// (SetStates): its slices read them by offset, the owner may append
// under them, and they never join a root's column.
func TestHeldStatesSlice(t *testing.T) {
	prices := []float64{0.31, 0.30, 0.52, 0.52, 0.30, 0.77, 0.31, 0.9}
	var col Buckets
	for _, p := range prices[:6] {
		col.Add(p)
	}
	s := NewSeries("z", 0, prices[:6])
	s.SetStates(col.States())
	sl := s.Slice(2*DefaultStep, 6*DefaultStep)
	for _, p := range prices[6:] {
		col.Add(p)
	}
	ids, vals := sl.States()
	checkStates(t, "slice of held states", prices[2:6], ids, vals)
	if want := []int32{1, 1, 0, 2}; !slices.Equal(ids, want) {
		t.Fatalf("ids %v, want %v", ids, want)
	}
	if _, _, ok := JoinStates(s.Slice(0, 2*DefaultStep), sl); ok {
		t.Fatal("slices of held states joined as a root column")
	}
	if StatesBuilt(s) {
		t.Fatal("a series with held states built a root column")
	}
}

// TestStatesBuiltOnceConcurrently makes two goroutines read states
// through slices of one root at once: the root's column is built once,
// so both read one value table, and the race detector sees no race.
func TestStatesBuiltOnceConcurrently(t *testing.T) {
	prices := make([]float64, 5000)
	for i := range prices {
		prices[i] = 0.05 * float64(1+(i*7919)%61)
	}
	root := NewSeries("z", 0, prices)
	slices := []*Series{root.Slice(0, 2000*DefaultStep), root.Slice(1000*DefaultStep, 5000*DefaultStep)}
	vals := make([][]float64, len(slices))
	var wg sync.WaitGroup
	for i, s := range slices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, vals[i] = s.States()
		}()
	}
	wg.Wait()
	if &vals[0][0] != &vals[1][0] {
		t.Fatal("the two slices read two value tables: the root's column was built twice")
	}
	ids, all := root.States()
	checkStates(t, "root", prices, ids, all)
	if &all[0] != &vals[0][0] {
		t.Fatal("the root reads another value table than its slices")
	}
}
