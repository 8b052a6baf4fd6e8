package quote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
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

// FuzzStreamerRestore exercises crash recovery from an untrusted
// snapshot file: the bytes go through the stores' JSON decode and then
// Streamer.Restore, which must never panic. A refused snapshot must
// leave the streamer fresh — feed position 0, no restore counted —
// and still able to subscribe and ingest; an accepted one must hold,
// for every shape, the table Rank computes over the restored window,
// and resume the feed at Seq()+1. The seeds include a checkpoint in
// the format that stored every shape's window beside the streamer's
// (testdata/checkpoint_per_shape.json), checkpoints taken after the
// window trimmed and after a sequence jump restarted it, and one that
// lists a shape twice.
func FuzzStreamerRestore(f *testing.F) {
	fx := newStreamFixture()
	src := fx.streamer()
	sub, err := src.Subscribe(fx.shape)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := src.Ingest(uint64(i+1), fx.reorderRow(i)); err != nil {
			f.Fatal(err)
		}
	}
	snap := src.Snapshot()
	sub.Close()
	checkpoint, err := json.Marshal(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(checkpoint)

	// A shape whose evaluator state is null.
	nullState := *snap
	nullState.Shapes = []ShapeSnapshot{{Req: snap.Shapes[0].Req}}
	raw, err := json.Marshal(&nullState)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)

	// A shape request under Go field names rather than wire names.
	wire, err := json.Marshal(snap.Shapes[0].Req)
	if err != nil {
		f.Fatal(err)
	}
	goNames := fmt.Sprintf(`{"WorkHours":4,"DeadlineHours":12,"OnDemandPrice":%g,"MaxZones":2,"Top":3}`, DefaultOnDemandPrice)
	f.Add(bytes.Replace(checkpoint, wire, []byte(goNames), 1))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"shapes":[{}]}`))

	perShape, err := os.ReadFile("testdata/checkpoint_per_shape.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(perShape)

	// A streamer whose window trimmed (past 2·Backlog rows), then
	// restarted on a sequence jump past Backlog, on two grids.
	small := fx.streamer()
	small.Backlog = 4
	for _, r := range []Request{fx.shape, {WorkHours: 2, DeadlineHours: 3, MaxZones: 1}} {
		sub, err := small.Subscribe(r)
		if err != nil {
			f.Fatal(err)
		}
		defer sub.Close()
	}
	for i := 0; i < 11; i++ {
		if err := small.Ingest(uint64(i+1), fx.reorderRow(i)); err != nil {
			f.Fatal(err)
		}
	}
	trimmed, err := json.Marshal(small.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(trimmed)
	if err := small.Ingest(30, fx.row(11)); err != nil {
		f.Fatal(err)
	}
	restarted, err := json.Marshal(small.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(restarted)

	dup := *snap
	dup.Shapes = []ShapeSnapshot{snap.Shapes[0], snap.Shapes[0]}
	raw, err = json.Marshal(&dup)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)

	f.Fuzz(func(t *testing.T, raw []byte) {
		snap, err := (&MemStore{raw: raw}).Load()
		if err != nil || snap == nil {
			return
		}
		st := fx.streamer()
		if err := st.Restore(snap); err == nil {
			for key, sh := range st.shapes {
				var want []core.Plan // an empty window ranks nothing
				if st.tape.Len() > 0 {
					want = rankSet(t, st, sh.req, st.tape.Set())
				}
				if !reflect.DeepEqual(sh.sc.Plans(), want) {
					t.Fatalf("restored shape %s: table diverges from Rank over the restored %d-row window", key, st.tape.Len())
				}
			}
			if err := st.Ingest(st.Seq()+1, fx.row(0)); err != nil {
				t.Fatalf("restored streamer refused its next tick: %v", err)
			}
			return
		}
		if st.Seq() != 0 || st.Metrics.Restores.Load() != 0 {
			t.Fatalf("refused restore left seq %d, restores %d", st.Seq(), st.Metrics.Restores.Load())
		}
		sub, err := st.Subscribe(fx.shape)
		if err != nil {
			t.Fatalf("refused restore left the streamer unable to subscribe: %v", err)
		}
		defer sub.Close()
		if err := st.Ingest(1, fx.row(0)); err != nil || st.Seq() != 1 {
			t.Fatalf("refused restore left the streamer unable to ingest: seq %d, %v", st.Seq(), err)
		}
	})
}

// FuzzStreamPollParams exercises the stream endpoint's resume and
// long-poll inputs — the Last-Event-ID header, ?gen= and ?timeout_ms= —
// which arrive untouched from the client. Parsing must never panic;
// resumeFloor must agree with strconv.ParseUint (a well-formed header
// wins, a malformed one is ignored, a malformed gen is refused); and
// an accepted timeout must lie in (0, maxPollTimeout].
func FuzzStreamPollParams(f *testing.F) {
	f.Add("", "", "")
	f.Add("7", "3", "250")
	f.Add("x", "18446744073709551615", "9223372036855")
	f.Add("", "18446744073709551616", "18446744073710")
	f.Add("-1", "-1", "-1")
	f.Add(" 5", "+5", "0")
	f.Fuzz(func(t *testing.T, lastEventID, gen, timeoutMS string) {
		r := httptest.NewRequest(http.MethodGet, "/v1/quotes/stream", nil)
		r.URL.RawQuery = url.Values{"gen": {gen}, "timeout_ms": {timeoutMS}}.Encode()
		r.Header.Set("Last-Event-ID", lastEventID)
		lastEventID = r.Header.Get("Last-Event-ID") // as the handler reads it

		floor, err := resumeFloor(r)
		want, wantErr := uint64(0), false
		if v, perr := strconv.ParseUint(lastEventID, 10, 64); lastEventID != "" && perr == nil {
			want = v
		} else if gen != "" {
			v, perr := strconv.ParseUint(gen, 10, 64)
			want, wantErr = v, perr != nil
			if wantErr {
				want = 0
			}
		}
		if floor != want || (err != nil) != wantErr {
			t.Fatalf("resumeFloor(Last-Event-ID %q, gen %q) = %d, %v; want %d, error %v",
				lastEventID, gen, floor, err, want, wantErr)
		}

		d, err := pollTimeout(r.URL.Query().Get("timeout_ms"))
		if err != nil {
			return
		}
		if d <= 0 || d > maxPollTimeout {
			t.Fatalf("pollTimeout(%q) = %v, outside (0, %v]", timeoutMS, d, maxPollTimeout)
		}
	})
}

// FuzzStreamerIngest drives Ingest with arbitrary feed chaos: sequence
// numbers that repeat, go back or skip ahead, and rows holding NaN,
// ±Inf or negative prices or the wrong number of them. Nothing may
// panic, every snapshot and checkpoint must JSON-encode, and the final
// snapshot must equal that of a streamer fed only the valid rows.
// Each op is three bytes: the sequence step (back one to ahead seven,
// or ahead 2^40 from byte 252 up — jumps past the streamer's Backlog of
// four restart its feed), the row kind, and the fixture row or zone it
// uses.
func FuzzStreamerIngest(f *testing.F) {
	fx := newStreamFixture()
	f.Add([]byte{2, 0, 0, 2, 0, 1, 2, 1, 2, 2, 0, 3})
	f.Add([]byte{2, 0, 0, 1, 2, 0, 3, 3, 1, 0, 4, 2, 5, 0, 4, 2, 5, 0, 2, 6, 1, 2, 7, 5})
	f.Add([]byte{9, 7, 1, 0, 1, 0, 2, 4, 9, 255, 255, 255})
	f.Add([]byte{2, 0, 0, 7, 1, 2, 252, 0, 5, 2, 0, 6, 253, 2, 1, 2, 1, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 96 {
			ops = ops[:96]
		}
		zones := len(fx.set.Zones())
		newStreamer := func() (*Streamer, *MemStore) {
			store := &MemStore{}
			st := fx.streamer()
			st.Store, st.CheckpointEvery = store, 2
			st.Backlog = 4 // jumps of 6 or more restart the feed
			if _, err := st.Subscribe(fx.shape); err != nil {
				t.Fatal(err)
			}
			return st, store
		}
		st, store := newStreamer()
		ref, _ := newStreamer()
		var seq uint64
		for i := 0; i+2 < len(ops); i += 3 {
			jump := int64(ops[i]%9) - 1
			if ops[i] >= 252 {
				jump = 1 << 40
			}
			if next := int64(seq) + jump; next >= 0 {
				seq = uint64(next)
			}
			row := fx.reorderRow(int(ops[i+2]) % 64)
			valid := false // until the row kind says otherwise; seq 0 never is
			switch z := int(ops[i+2]) % zones; ops[i+1] % 8 {
			case 0, 1:
				valid = seq > 0
			case 2:
				row[z] = math.NaN()
			case 3:
				row[z] = math.Inf(1)
			case 4:
				row[z] = math.Inf(-1)
			case 5:
				row[z] = -float64(ops[i+2]) - 0.5
			case 6:
				row = row[:z]
			case 7:
				row = append(row, 1)
			}
			err := st.Ingest(seq, row)
			if valid {
				if rerr := ref.Ingest(seq, row); (err == nil) != (rerr == nil) {
					t.Fatalf("op %d: valid row at seq %d: %v, reference %v", i/3, seq, err, rerr)
				}
			} else if !valid && err == nil {
				t.Fatalf("op %d: invalid row %v accepted at seq %d", i/3, row, seq)
			}
			if _, err := json.Marshal(st.Snapshot()); err != nil {
				t.Fatalf("op %d: snapshot does not encode: %v", i/3, err)
			}
		}
		if st.Metrics.CheckpointErrors.Load() != 0 {
			t.Fatalf("%d checkpoints failed", st.Metrics.CheckpointErrors.Load())
		}
		if _, err := store.Load(); err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(st.Snapshot())
		want, _ := json.Marshal(ref.Snapshot())
		if !bytes.Equal(got, want) {
			t.Fatalf("streamer diverges from one fed only the valid rows:\n%s\n%s", got, want)
		}
	})
}
