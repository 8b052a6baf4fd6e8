package decision

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// fuzzStrings is the identifier table fuzz inputs index into: triggers
// and policy names stay realistic while the numeric space is explored
// freely (arbitrary strings are exercised separately via the raw
// parse-robustness input).
var fuzzStrings = []string{"begin", "provider-kill", "hour-boundary", "rank", "periodic", "markov-daly", "", `q"uo\te`, "ctrl\x01\x1f"}

// fuzzRecord builds a deterministic record from fuzz primitives.
func fuzzRecord(seq int32, tm int64, trig, pol uint8, switched bool, bid, cost float64, zmask uint16, nRanked uint8) Record {
	mk := func(b, c float64, m uint16, p uint8) Alt {
		var zones []int
		for z := 0; z < 16; z++ {
			if m&(1<<z) != 0 {
				zones = append(zones, z)
			}
		}
		return Alt{Bid: b, Zones: zones, Policy: fuzzStrings[int(p)%len(fuzzStrings)], Cost: c}
	}
	rec := Record{
		Seq:      int(seq),
		Time:     tm,
		Trigger:  fuzzStrings[int(trig)%len(fuzzStrings)],
		Switched: switched,
		Chosen:   mk(bid, cost, zmask, pol),
	}
	for i := uint8(0); i < nRanked%8; i++ {
		rec.Ranked = append(rec.Ranked, mk(bid+float64(i)*0.2, cost*float64(i+1), zmask>>i, pol+i))
	}
	return rec
}

// normalize maps a record onto the codec's canonical image: non-finite
// floats clamp to MaxFloat64 and negative zeros lose their sign (JSON
// has neither).
func normalize(rec Record) Record {
	f := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.MaxFloat64
		}
		if v == 0 {
			return 0
		}
		return v
	}
	alt := func(a Alt) Alt {
		a.Bid, a.Cost = f(a.Bid), f(a.Cost)
		return a
	}
	rec.Chosen = alt(rec.Chosen)
	for i := range rec.Ranked {
		rec.Ranked[i] = alt(rec.Ranked[i])
	}
	return rec
}

// FuzzDecisionLogRoundTrip is the satellite fuzz target wired into
// scripts/check.sh: every decision record must encode to one JSON line
// that decodes back to the same value and re-encodes byte-identically,
// and parseRecord must never panic on arbitrary bytes.
func FuzzDecisionLogRoundTrip(f *testing.F) {
	f.Add(int32(0), int64(432000), uint8(0), uint8(4), true, 0.81, 14.25, uint16(0b101), uint8(2), []byte(`{"seq":1}`))
	f.Add(int32(7), int64(-1), uint8(2), uint8(5), false, math.Inf(1), math.NaN(), uint16(0), uint8(0), []byte("not json"))
	f.Add(int32(-3), int64(math.MaxInt64), uint8(7), uint8(8), true, -0.0, math.MaxFloat64, uint16(0xffff), uint8(7), []byte{0xff, 0xfe})
	f.Fuzz(func(t *testing.T, seq int32, tm int64, trig, pol uint8, switched bool, bid, cost float64, zmask uint16, nRanked uint8, raw []byte) {
		// Arbitrary bytes must never panic the parser.
		_, _ = parseRecord(raw)

		rec := fuzzRecord(seq, tm, trig, pol, switched, bid, cost, zmask, nRanked)
		line := AppendRecord(nil, &rec)
		got, err := parseRecord(line)
		if err != nil {
			t.Fatalf("canonical encoding does not parse: %v\n%s", err, line)
		}
		if want := normalize(rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the record:\nin   %+v\nwant %+v\ngot  %+v", rec, want, got)
		}
		again := AppendRecord(nil, &got)
		if !bytes.Equal(line, again) {
			t.Fatalf("re-encode not byte-identical:\n%s\n%s", line, again)
		}
	})
}
