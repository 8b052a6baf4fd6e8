package trace

import (
	"math"
	"testing"
)

func mkSeries(zone string, epoch int64, prices ...float64) *Series {
	return NewSeries(zone, epoch, prices)
}

func TestSeriesAccessors(t *testing.T) {
	s := mkSeries("us-east-1a", 1000, 0.3, 0.4, 0.5)
	if got := s.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if got := s.Duration(); got != 3*DefaultStep {
		t.Fatalf("Duration = %d, want %d", got, 3*DefaultStep)
	}
	if got := s.Start(); got != 1000 {
		t.Fatalf("Start = %d, want 1000", got)
	}
	if got := s.End(); got != 1000+3*DefaultStep {
		t.Fatalf("End = %d, want %d", got, 1000+3*DefaultStep)
	}
}

func TestPriceAt(t *testing.T) {
	s := mkSeries("z", 0, 0.3, 0.4, 0.5)
	cases := []struct {
		t    int64
		want float64
	}{
		{-100, 0.3}, // clamped before epoch
		{0, 0.3},
		{299, 0.3},
		{300, 0.4},
		{599, 0.4},
		{600, 0.5},
		{899, 0.5},
		{10_000, 0.5}, // clamped past end
	}
	for _, c := range cases {
		if got := s.PriceAt(c.t); got != c.want {
			t.Errorf("PriceAt(%d) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestPriceAtEmpty(t *testing.T) {
	s := mkSeries("z", 0)
	if got := s.PriceAt(0); !math.IsNaN(got) {
		t.Fatalf("PriceAt on empty series = %g, want NaN", got)
	}
}

func TestSlice(t *testing.T) {
	s := mkSeries("z", 0, 1, 2, 3, 4, 5, 6)
	sub := s.Slice(300, 1200)
	if sub.Epoch != 300 || sub.Len() != 3 {
		t.Fatalf("Slice = epoch %d len %d, want 300, 3", sub.Epoch, sub.Len())
	}
	if sub.Prices[0] != 2 || sub.Prices[2] != 4 {
		t.Fatalf("Slice prices = %v, want [2 3 4]", sub.Prices)
	}
	// Bounds clamped.
	all := s.Slice(-100, 99999)
	if all.Len() != 6 {
		t.Fatalf("clamped Slice len = %d, want 6", all.Len())
	}
	// Inverted bounds yield an empty slice, not a panic.
	empty := s.Slice(1200, 300)
	if empty.Len() != 0 {
		t.Fatalf("inverted Slice len = %d, want 0", empty.Len())
	}
	// Bounds entirely past the end (or before the start) are empty too;
	// this was a crash the spotapi handler could trigger on
	// out-of-range requests.
	past := s.Slice(s.End()+Hour, s.End()+2*Hour)
	if past.Len() != 0 {
		t.Fatalf("past-end Slice len = %d, want 0", past.Len())
	}
	before := s.Slice(-10*Hour, -9*Hour)
	if before.Len() != 0 {
		t.Fatalf("pre-start Slice len = %d, want 0", before.Len())
	}
}

func TestValidate(t *testing.T) {
	good := mkSeries("z", 0, 0.5, 0.7)
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate(good) = %v", err)
	}
	bad := mkSeries("z", 0, 0.5, -0.1)
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted a negative price")
	}
	nan := mkSeries("z", 0, math.NaN())
	if err := nan.Validate(); err == nil {
		t.Fatal("Validate accepted a NaN price")
	}
	zeroStep := &Series{Zone: "z", Step: 0, Prices: []float64{1}}
	if err := zeroStep.Validate(); err == nil {
		t.Fatal("Validate accepted a zero step")
	}
}

func TestChanges(t *testing.T) {
	s := mkSeries("z", 0, 1, 1, 2, 2, 2, 3, 1)
	if got := s.Changes(); got != 3 {
		t.Fatalf("Changes = %d, want 3", got)
	}
}

func TestNewSetAlignment(t *testing.T) {
	a := mkSeries("a", 0, 1, 2, 3)
	b := mkSeries("b", 0, 4, 5, 6)
	if _, err := NewSet(a, b); err != nil {
		t.Fatalf("NewSet(aligned) = %v", err)
	}
	c := mkSeries("c", 300, 4, 5, 6) // different epoch
	if _, err := NewSet(a, c); err == nil {
		t.Fatal("NewSet accepted misaligned epochs")
	}
	d := mkSeries("d", 0, 4, 5) // different length
	if _, err := NewSet(a, d); err == nil {
		t.Fatal("NewSet accepted misaligned lengths")
	}
	if _, err := NewSet(); err == nil {
		t.Fatal("NewSet accepted an empty set")
	}
}

func TestSetAccessors(t *testing.T) {
	set := MustNewSet(mkSeries("a", 0, 1, 2), mkSeries("b", 0, 3, 4))
	if got := set.NumZones(); got != 2 {
		t.Fatalf("NumZones = %d, want 2", got)
	}
	zs := set.Zones()
	if zs[0] != "a" || zs[1] != "b" {
		t.Fatalf("Zones = %v", zs)
	}
	ps := set.PricesAt(301)
	if ps[0] != 2 || ps[1] != 4 {
		t.Fatalf("PricesAt = %v, want [2 4]", ps)
	}
	sliced := set.Slice(300, 600)
	if sliced.Duration() != 300 || sliced.Series[1].Prices[0] != 4 {
		t.Fatalf("Set.Slice wrong: %+v", sliced.Series[1])
	}
}

func TestCloneIsDeep(t *testing.T) {
	set := MustNewSet(mkSeries("a", 0, 1, 2))
	cl := set.Clone()
	cl.Series[0].Prices[0] = 99
	if set.Series[0].Prices[0] == 99 {
		t.Fatal("Clone shares price storage")
	}
}

func TestIndexClamping(t *testing.T) {
	s := mkSeries("z", 600, 1, 2, 3)
	if got := s.Index(0); got != 0 {
		t.Fatalf("Index before epoch = %d, want 0", got)
	}
	if got := s.Index(600 + 10*DefaultStep); got != 2 {
		t.Fatalf("Index past end = %d, want 2", got)
	}
}
