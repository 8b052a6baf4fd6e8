package decision

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/leak"
)

// testAlts is the producer-shaped scratch grid testPoint reuses; zones
// and ranked alias it across calls exactly as the Adaptive recorder's
// scratch does.
var testAlts = []core.DecisionAlt{
	{Bid: 0.81, Zones: []int{0, 2}, Policy: "periodic", Cost: 14.25},
	{Bid: 0.47, Zones: []int{1}, Policy: "markov-daly", Cost: 15.5},
	{Bid: 1.67, Zones: []int{0}, Policy: "periodic", Cost: 16.75},
}

// testPoint builds a producer-shaped decision point over the shared (or
// a caller-supplied) scratch grid.
func testPoint(seq int, scratch []core.DecisionAlt) core.DecisionPoint {
	if scratch == nil {
		scratch = testAlts
	}
	return core.DecisionPoint{
		Seq:     seq,
		Time:    432000 + int64(seq)*3600,
		Trigger: core.TriggerHourBoundary,
		Chosen:  scratch[0],
		Ranked:  scratch,
	}
}

// TestLogRingSemantics checks seq auto-assignment, wrap-around
// retention (oldest first) and the lifetime total.
func TestLogRingSemantics(t *testing.T) {
	l := NewLog(4, nil)
	for i := 0; i < 7; i++ {
		l.RecordDecision(testPoint(-1, nil))
	}
	if l.Total() != 7 || l.Capacity() != 4 {
		t.Fatalf("total %d capacity %d, want 7/4", l.Total(), l.Capacity())
	}
	recs := l.Records()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.Seq != 3+i {
			t.Fatalf("record %d has seq %d, want %d (oldest-first after wrap)", i, r.Seq, 3+i)
		}
		if len(r.Ranked) != 3 || len(r.Chosen.Zones) != 2 {
			t.Fatalf("record %d lost shape: %+v", i, r)
		}
	}
}

// TestLogDeepCopiesScratch verifies the ring does not alias the
// producer's reused scratch: mutating the scratch after recording must
// not change retained records.
func TestLogDeepCopiesScratch(t *testing.T) {
	l := NewLog(4, nil)
	scratch := make([]core.DecisionAlt, len(testAlts))
	for i, a := range testAlts {
		scratch[i] = a
		scratch[i].Zones = append([]int(nil), a.Zones...)
	}
	p := testPoint(0, scratch)
	l.RecordDecision(p)
	p.Ranked[0].Bid = 99
	p.Ranked[0].Zones[0] = 9
	rec := l.Records()[0]
	if rec.Chosen.Bid == 99 || rec.Ranked[0].Bid == 99 || rec.Ranked[0].Zones[0] == 9 {
		t.Fatalf("ring aliases producer scratch: %+v", rec)
	}
}

// TestLogWritesJSONLines checks the append-only writer output parses
// back to the recorded decisions.
func TestLogWritesJSONLines(t *testing.T) {
	var sb writerBuffer
	l := NewLog(2, &sb)
	for i := 0; i < 5; i++ {
		l.RecordDecision(testPoint(-1, nil))
	}
	recs, err := readRecords(&sb)
	if err != nil {
		t.Fatal(err)
	}
	// The file keeps everything even though the ring only retains 2.
	if len(recs) != 5 {
		t.Fatalf("file holds %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != i {
			t.Fatalf("file record %d has seq %d", i, r.Seq)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.werrs != 0 {
		t.Fatalf("unexpected write errors: %d", l.werrs)
	}
}

// writerBuffer is a minimal in-memory io.Writer + io.Reader.
type writerBuffer struct {
	b []byte
	r int
}

func (w *writerBuffer) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *writerBuffer) Read(p []byte) (int, error) {
	if w.r >= len(w.b) {
		return 0, io.EOF
	}
	n := copy(p, w.b[w.r:])
	w.r += n
	return n, nil
}

// TestLogRecordSteadyStateAllocs pins the recording fast path: once the
// ring has wrapped and its slot backings have grown to the decision
// shape, RecordDecision (including JSON-line encoding into the reused
// buffer) must not allocate.
func TestLogRecordSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	l := NewLog(8, io.Discard)
	record := func() { l.RecordDecision(testPoint(-1, nil)) }
	for i := 0; i < 3*l.Capacity(); i++ {
		record()
	}
	if allocs := testing.AllocsPerRun(200, record); allocs != 0 {
		t.Fatalf("steady-state RecordDecision allocates %.1f/op, want 0", allocs)
	}
}

// TestLogConcurrent hammers recording from several goroutines while a
// reader polls, under -race, and leak-checks the exercise.
func TestLogConcurrent(t *testing.T) {
	base := leak.Baseline()
	l := NewLog(64, io.Discard)
	const workers = 6
	const perWorker = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.RecordDecision(testPoint(-1, nil))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, r := range l.Records() {
				if len(r.Ranked) != 3 {
					t.Errorf("reader saw torn record: %+v", r)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := l.Total(); got != workers*perWorker {
		t.Fatalf("recorded %d decisions, want %d", got, workers*perWorker)
	}
	leak.CheckT(t, base)
}

// TestLogHandler exercises the /debug/decisions dump end to end.
func TestLogHandler(t *testing.T) {
	l := NewLog(4, nil)
	for i := 0; i < 6; i++ {
		l.RecordDecision(testPoint(-1, nil))
	}
	srv := httptest.NewServer(l.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump struct {
		Total    uint64   `json:"total"`
		Capacity int      `json:"capacity"`
		Records  []Record `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if dump.Total != 6 || dump.Capacity != 4 || len(dump.Records) != 4 {
		t.Fatalf("dump shape: total=%d capacity=%d records=%d", dump.Total, dump.Capacity, len(dump.Records))
	}
	if dump.Records[0].Seq != 2 {
		t.Fatalf("dump not oldest-first: first seq %d", dump.Records[0].Seq)
	}
}
