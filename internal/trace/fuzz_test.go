package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV exercises the CSV decoder against arbitrary inputs: it
// must never panic, and any accepted input must round-trip.
func FuzzReadCSV(f *testing.F) {
	var seed bytes.Buffer
	_ = sampleSet().WriteCSV(&seed)
	f.Add(seed.String())
	f.Add("time,zone,price\n0,a,0.3\n")
	f.Add("time,zone,price\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, in string) {
		set, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("ReadCSV accepted an invalid set: %v", err)
		}
		var buf bytes.Buffer
		if err := set.WriteCSV(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.NumZones() != set.NumZones() || again.Duration() != set.Duration() {
			t.Fatalf("round trip changed shape")
		}
	})
}

// FuzzReadJSON exercises the JSON decoder similarly.
func FuzzReadJSON(f *testing.F) {
	var seed bytes.Buffer
	_ = sampleSet().WriteJSON(&seed)
	f.Add(seed.String())
	f.Add(`{"series":[{"zone":"z","epoch":0,"step":300,"prices":[0.3]}]}`)
	f.Add(`{}`)
	f.Fuzz(func(t *testing.T, in string) {
		set, err := ReadJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("ReadJSON accepted an invalid set: %v", err)
		}
	})
}

// FuzzBidIndexAppend drives the sliding availability index with
// arbitrary byte-derived tick sequences and asserts the streaming
// invariant: an index extended tick by tick from empty, re-aliasing the
// grown column each time, and dropping samples from the window's front
// answers every query identically to one built from scratch over the
// current window. The window's storage moves before the index drops
// (as an Adaptive run's window compacts in place), so a Drop that read
// prices would read the wrong ones.
func FuzzBidIndexAppend(f *testing.F) {
	f.Add([]byte{10, 200, 10, 40, 40, 40, 200, 0, 0, 255})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 1, 254, 2, 253, 3})
	f.Add([]byte{0, 128, 3, 90}) // all up (the bid admits 1.28)
	f.Add([]byte{200, 255, 129}) // all down
	f.Add([]byte{50})            // single sample
	f.Add([]byte{10, 200, 10, 200, 10, 200, 15, 207, 11, 31, 255, 255, 127})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		// Each byte is one tick's price in cents; the bid sits mid-range
		// so both availability states occur. A byte whose low two bits
		// are set also drops (b>>2)%4 samples from the window's front.
		var window []float64
		set := &Set{Series: []*Series{{Zone: "z", Step: DefaultStep}}}
		cols := &Columns{}
		const bid = 1.28
		inc := BidIndex{Zone: 0, Bid: bid}
		for _, b := range data {
			window = append(window, float64(b)/100)
			drop := 0
			if b&3 == 3 {
				drop = min(int(b>>2)%4, len(window))
				window = window[:copy(window, window[drop:])]
			}
			set.Series[0].Prices = window
			cols.Reset(set)
			inc.Drop(drop)
			inc.Append(cols, inc.Len())
		}
		var ref BidIndex
		ref.Build(cols, 0, bid)
		if inc.Len() != ref.Len() {
			t.Fatalf("shape: len %d/%d", inc.Len(), ref.Len())
		}
		for i := 0; i < ref.Len(); i++ {
			if inc.Up(i) != ref.Up(i) || inc.nextUp(i) != ref.nextUp(i) || inc.NextChange(i) != ref.NextChange(i) {
				t.Fatalf("step %d: up %v/%v nextup %d/%d nextchange %d/%d", i,
					inc.Up(i), ref.Up(i), inc.nextUp(i), ref.nextUp(i), inc.NextChange(i), ref.NextChange(i))
			}
		}
	})
}
