package trace

import (
	"math/rand"
	"testing"
)

// randRow derives one price row from the rng, mixing flat stretches,
// small moves and spikes so availability runs of every shape appear.
func randRow(rng *rand.Rand, prev []float64) []float64 {
	row := make([]float64, len(prev))
	for z := range prev {
		p := prev[z]
		switch rng.Intn(10) {
		case 0:
			p = 0.27 + rng.Float64()*3 // rebase
		case 1, 2:
			p += (rng.Float64() - 0.5) * 0.4 // drift
		case 3:
			p *= 4 // spike
		}
		if p < 0.01 {
			p = 0.01
		}
		row[z] = p
	}
	return row
}

// TestBidIndexAppendMatchesRebuild is the append-then-query property
// test: over randomized tick sequences, an index extended tick by tick
// (through AvailIndex.Slide) answers every query identically to an
// index rebuilt from scratch over the grown window.
func TestBidIndexAppendMatchesRebuild(t *testing.T) {
	bids := []float64{0.27, 0.87, 1.47, 3.07}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nz := 1 + rng.Intn(3)
		zones := make([]string, nz)
		for i := range zones {
			zones[i] = string(rune('a' + i))
		}
		tape, err := NewTape(zones, 1000, DefaultStep)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float64, nz)
		for i := range row {
			row[i] = 0.3 + rng.Float64()
		}

		cols := &Columns{}
		avail := NewAvailIndex(cols)
		ticks := 40 + rng.Intn(120)
		for tick := 0; tick < ticks; tick++ {
			row = randRow(rng, row)
			if err := tape.Append(row); err != nil {
				t.Fatal(err)
			}
			cols.Reset(tape.Set())
			avail.Slide(0)

			fresh := &Columns{}
			fresh.Reset(tape.Set())
			for z := 0; z < nz; z++ {
				for _, bid := range bids {
					inc := avail.Get(z, bid)
					var ref BidIndex
					ref.Build(fresh, z, bid)
					if inc.Len() != ref.Len() || inc.Len() != tick+1 {
						t.Fatalf("seed %d tick %d: len %d vs rebuild %d", seed, tick, inc.Len(), ref.Len())
					}
					if inc.UpCount() != ref.UpCount() {
						t.Fatalf("seed %d tick %d zone %d bid %v: UpCount %d vs rebuild %d",
							seed, tick, z, bid, inc.UpCount(), ref.UpCount())
					}
					for i := 0; i < inc.Len(); i++ {
						if inc.Up(i) != ref.Up(i) {
							t.Fatalf("seed %d tick %d zone %d bid %v: Up(%d) %v vs %v",
								seed, tick, z, bid, i, inc.Up(i), ref.Up(i))
						}
						if inc.NextUp(i) != ref.NextUp(i) {
							t.Fatalf("seed %d tick %d zone %d bid %v: NextUp(%d) %d vs %d",
								seed, tick, z, bid, i, inc.NextUp(i), ref.NextUp(i))
						}
						if inc.NextChange(i) != ref.NextChange(i) {
							t.Fatalf("seed %d tick %d zone %d bid %v: NextChange(%d) %d vs %d",
								seed, tick, z, bid, i, inc.NextChange(i), ref.NextChange(i))
						}
					}
				}
			}
		}
	}
}

// TestTapeSetView pins the Set view's alignment and aliasing: the view
// tracks appends, validates, and matches the appended rows sample for
// sample; Trim keeps the trailing rows only past twice its bound and
// leaves a view sliced before it intact.
func TestTapeSetView(t *testing.T) {
	tape, err := NewTape([]string{"us-east-1a", "us-east-1b"}, 5000, 300)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{0.3, 0.4}, {0.5, 0.4}, {0.5, 1.2}}
	for _, r := range rows {
		if err := tape.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	set := tape.Set()
	if err := set.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if set.Start() != 5000 || set.Step() != 300 || set.Series[0].Len() != 3 {
		t.Fatalf("view geometry: start %d step %d len %d", set.Start(), set.Step(), set.Series[0].Len())
	}
	for i, r := range rows {
		for z := range r {
			if got := set.Series[z].Prices[i]; got != r[z] {
				t.Fatalf("sample (%d, %d) = %v, want %v", z, i, got, r[z])
			}
		}
	}
	if err := tape.Append([]float64{1}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := tape.Append([]float64{-1, 2}); err == nil {
		t.Fatal("negative price accepted")
	}

	view := tape.Set().Slice(5000, 5900)
	if tape.Trim(2); tape.Len() != 3 {
		t.Fatal("Trim(2) dropped rows from a 3-row tape")
	}
	if tape.Trim(1); tape.Len() != 1 || tape.Start() != 5600 || tape.End() != 5900 {
		t.Fatalf("Trim(1): len %d start %d", tape.Len(), tape.Start())
	}
	if got := tape.Set().Series[1].Prices[0]; got != 1.2 {
		t.Fatalf("trimmed sample = %v, want 1.2", got)
	}
	if err := tape.Append([]float64{0.7, 0.8}); err != nil {
		t.Fatal(err)
	}
	// A view sliced before the trim keeps its samples.
	if got := view.Series[0].Prices; len(got) != 3 || got[0] != 0.3 || got[2] != 0.5 {
		t.Fatalf("pre-trim view now reads %v", got)
	}
}
