package quote

import (
	"math"
	"net/url"
	"strings"
	"testing"
)

// FuzzDecodeRequest exercises the request decoder: it must never
// panic, and anything it accepts must normalize and key
// deterministically; accepted-and-valid requests must survive a
// validation round-trip.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(`{"work_hours":20,"deadline_hours":30,"history_window":12}`)
	f.Add(`{"work_hours":20,"deadline_hours":30,"on_demand_price":2.4,"history_window":12,"max_zones":3,"top":5}`)
	f.Add(`{"work_hours":1e308,"deadline_hours":1e309,"history_window":-0}`)
	f.Add(`{"work_hours":-0.0001,"deadline_hours":null}`)
	f.Add(`{"work_hours":9007199254740993,"deadline_hours":2e16,"history_window":0.0000001}`)
	f.Add(`{}`)
	f.Add(`{"unknown":true}`)
	f.Add(`[{"work_hours":1}]`)
	f.Add(`{"work_hours":`)
	f.Add(``)
	f.Add(`0`)
	f.Fuzz(func(t *testing.T, in string) {
		req, err := DecodeRequest(strings.NewReader(in))
		if err != nil {
			return
		}
		req.Normalize()
		key1 := req.Key()
		key2 := req.Key()
		if key1 != key2 {
			t.Fatalf("Key not deterministic: %q vs %q", key1, key2)
		}
		if err := req.Validate(); err != nil {
			return
		}
		// Validated requests carry finite, positive planning inputs.
		if req.WorkHours <= 0 || req.DeadlineHours < req.WorkHours ||
			req.HistoryWindowHours <= 0 || req.OnDemandPrice <= 0 ||
			req.MaxZones <= 0 || req.Top <= 0 {
			t.Fatalf("Validate accepted out-of-range request %+v", req)
		}
	})
}

// FuzzParseQuery exercises the stream endpoint's query parser: it must
// never panic and must key deterministically. A query the stream path
// accepts carries finite, positive planning inputs and no window, and
// its AffinityKey must not move when the parameters are permuted or
// the long-poll parameters (mode, gen, timeout_ms) are appended.
func FuzzParseQuery(f *testing.F) {
	f.Add("work_hours=4&deadline_hours=12")
	f.Add("work_hours=4.0&deadline_hours=12&on_demand_price=2.4&max_zones=3&top=5")
	f.Add("top=3&max_zones=2&deadline_hours=12&work_hours=4&mode=poll&gen=7")
	f.Add("work_hours=4&work_hours=5&deadline_hours=12")
	f.Add("work_hours=NaN&deadline_hours=Inf")
	f.Add("work_hours=1e400&deadline_hours=-0")
	f.Add("work_hours=0x1p2&deadline_hours=8&history_window=48")
	f.Add("work_hours=4&deadline_hours=12&max_zones=99999999999999999999")
	f.Add("%zz&work_hours&=4;top=2")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // the server reads what survives, as r.URL.Query does
		req, err := ParseQuery(q)
		if err != nil {
			return
		}
		req.Normalize()
		if k1, k2 := req.Key(), req.Key(); k1 != k2 {
			t.Fatalf("Key not deterministic: %q vs %q", k1, k2)
		}
		if err := req.validateStream(); err != nil {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(req.WorkHours) || !finite(req.DeadlineHours) || !finite(req.OnDemandPrice) ||
			req.WorkHours <= 0 || req.DeadlineHours < req.WorkHours || req.OnDemandPrice <= 0 ||
			req.MaxZones <= 0 || req.Top <= 0 || req.HistoryWindowHours != 0 {
			t.Fatalf("stream path accepted out-of-range shape %+v", req)
		}

		// The same parameters re-encoded in sorted key order, behind the
		// long-poll parameters.
		q2, err := url.ParseQuery("mode=poll&gen=7&timeout_ms=250&" + q.Encode())
		if err != nil {
			t.Fatalf("re-encoded query %q does not parse: %v", q.Encode(), err)
		}
		req2, err := ParseQuery(q2)
		if err != nil {
			t.Fatalf("permuted query rejected: %v", err)
		}
		req2.Normalize()
		if req.AffinityKey() != req2.AffinityKey() {
			t.Fatalf("AffinityKey moved under permutation: %q vs %q", req.Key(), req2.Key())
		}
	})
}
