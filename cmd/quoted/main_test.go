package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/quote"
	"repro/internal/spotapi"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// shape is the stream subscription both tests hold.
var shape = quote.Request{WorkHours: 4, DeadlineHours: 12, MaxZones: 2, Top: 3}

// streamers builds streamers as quoted does, checkpointing every 4
// ticks into snapshot when it is set.
func streamers(snapshot string) newStreamerFunc {
	return func(zones []string, start, step int64, first uint64) *quote.Streamer {
		st := &quote.Streamer{Eval: core.NewEvaluator(), Zones: zones, Start: start, Step: step, CheckpointEvery: 4}
		if snapshot != "" {
			resume(st, snapshot, first)
		}
		return st
	}
}

// waitSeq polls until the streamer has applied sequence number seq.
func waitSeq(t *testing.T, st *quote.Streamer, seq uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for st.Seq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("feed stuck at seq %d, want %d", st.Seq(), seq)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamFeedEndToEnd runs quoted's -stream -feed wiring against a
// pricefeedd-style server: HTTPFeed behind RetryFeed, pumped into the
// streamer, which serves both the SSE push API and one-shot quotes.
// The one-shot is answered from the tape: its digest is that of the
// served samples, and its body is byte-identical to a StaticSource
// quote over those samples.
func TestStreamFeedEndToEnd(t *testing.T) {
	set := tracegen.HighVolatility(7).Slice(0, 36*trace.Hour)
	epoch := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	upstream := httptest.NewServer(spotapi.Handler(set, epoch))
	defer upstream.Close()
	served, _, err := (&spotapi.Client{BaseURL: upstream.URL}).Fetch(context.Background(), time.Time{}, time.Time{}, trace.DefaultStep)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, pump := openLiveFeed(ctx, streamers(""), upstream.URL)
	first := uint64(epoch.Unix()/trace.DefaultStep) + 1
	if st.Start+int64(first-1)*st.Step != epoch.Unix() || st.Seq() != first {
		t.Fatalf("first row is seq %d at %d, want seq %d at the feed's start %d",
			st.Seq(), st.Start+int64(st.Seq()-1)*st.Step, first, epoch.Unix())
	}
	done := make(chan struct{})
	go func() { pump(); close(done) }()
	defer func() { cancel(); <-done }()
	waitSeq(t, st, first+uint64(served.Series[0].Len())-1)

	svc := &quote.Service{Source: st}
	srv := httptest.NewServer(quote.NewStreamingHandler(svc, st))
	defer srv.Close()

	// One SSE plan frame.
	sctx, scancel := context.WithTimeout(ctx, 30*time.Second)
	defer scancel()
	req, _ := http.NewRequestWithContext(sctx, http.MethodGet,
		srv.URL+"/v1/quotes/stream?work_hours=4&deadline_hours=12&max_zones=2&top=3", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var frame strings.Builder
	for sc.Scan() && sc.Text() != "" {
		frame.WriteString(sc.Text() + "\n")
	}
	resp.Body.Close()
	if !strings.Contains(frame.String(), "event: plan\n") || !strings.Contains(frame.String(), `"tick":`) {
		t.Fatalf("first SSE frame is not a plan:\n%s", frame.String())
	}

	// One one-shot quote, priced over the tape's last 12 hours.
	body := `{"work_hours":4,"deadline_hours":12,"history_window":12}`
	qresp, err := http.Post(srv.URL+"/v1/quote", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(qresp.Body)
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot quote: %s %s", qresp.Status, got)
	}
	tape := served.Slice(served.End()-12*trace.Hour, served.End()).Clone()
	for _, s := range tape.Series {
		s.Epoch += epoch.Unix()
	}
	var wire quote.Response
	if err := json.Unmarshal(got, &wire); err != nil {
		t.Fatal(err)
	}
	if wire.History.Digest != quote.Digest(tape) || wire.History.Samples != 144 {
		t.Fatalf("quote priced %d samples digested %s, want the tape's last 144 digested %s",
			wire.History.Samples, wire.History.Digest, quote.Digest(tape))
	}
	req2, _ := quote.DecodeRequest(strings.NewReader(body))
	want, _, err := (&quote.Service{Source: &quote.StaticSource{Set: tape}}).Quote(ctx, req2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("tape quote differs from a StaticSource quote over the same samples:\n%s\n%s", got, want)
	}
}

// TestPresetPumpMatchesIngest pins the synthetic preset's pump to the
// direct Ingest loop over the same cycling rows: the same published
// generations and byte-identical snapshot JSON, both for a cold start
// and for a stream resumed from its -snapshot checkpoint mid-cycle.
func TestPresetPumpMatchesIngest(t *testing.T) {
	const n = 25 // preset rows; the feed cycles every n ticks
	full := tracegen.HighVolatility(7)
	set := full.Slice(full.Start(), full.Start()+n*full.Step())
	path := filepath.Join(t.TempDir(), "plans.snap")

	// direct is the reference: ticks 1..upto through Ingest, row
	// (seq-1) mod n each, one subscriber from the start.
	direct := func(upto uint64) (*quote.StreamerSnapshot, uint64) {
		st := &quote.Streamer{Zones: set.Zones(), Start: set.Start(), Step: set.Step()}
		sub, err := st.Subscribe(shape)
		if err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= upto; seq++ {
			if err := st.Ingest(seq, set.PricesAt(set.Start()+int64((seq-1)%n)*set.Step())); err != nil {
				t.Fatal(err)
			}
		}
		return st.Snapshot(), st.Generation(sub)
	}
	// pumped runs quoted's preset pump until at least seq past, then
	// stops it.
	pumped := func(past uint64) (*quote.Streamer, *quote.StreamerSnapshot, uint64) {
		ctx, cancel := context.WithCancel(context.Background())
		st, pump := openPresetFeed(ctx, streamers(path), set, time.Nanosecond)
		sub, err := st.Subscribe(shape)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { pump(); close(done) }()
		waitSeq(t, st, past)
		cancel()
		<-done
		return st, st.Snapshot(), st.Generation(sub)
	}
	same := func(what string, got, want *quote.StreamerSnapshot, gotGen, wantGen uint64) {
		t.Helper()
		g, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) || gotGen != wantGen {
			t.Fatalf("%s at seq %d: generation %d vs %d; snapshots equal %v", what, got.Seq, gotGen, wantGen, bytes.Equal(g, w))
		}
	}

	cold, coldSnap, coldGen := pumped(2*n + 2)
	if cold.Metrics.Restores.Load() != 0 {
		t.Fatal("cold start restored a snapshot")
	}
	wantSnap, wantGen := direct(coldSnap.Seq)
	same("cold pump", coldSnap, wantSnap, coldGen, wantGen)
	if coldGen == 0 {
		t.Fatal("no generation published")
	}

	// Restart: the last checkpoint (a multiple of 4, mid-cycle) resumes
	// without replay, and the pump carries on through later cycles.
	checkpoint, err := (&quote.FileStore{Path: path}).Load()
	if err != nil || checkpoint == nil || checkpoint.Seq%n == 0 {
		t.Fatalf("checkpoint %+v, %v: want one mid-cycle", checkpoint, err)
	}
	resumed, resumedSnap, resumedGen := pumped(4*n + 3)
	if resumed.Metrics.Restores.Load() != 1 || resumed.Metrics.DupTicks.Load() != 0 || resumed.Metrics.GapFills.Load() != 0 {
		t.Fatalf("resume: restores %d, dup ticks %d, gap fills %d; want 1, 0, 0", resumed.Metrics.Restores.Load(),
			resumed.Metrics.DupTicks.Load(), resumed.Metrics.GapFills.Load())
	}
	if got := resumed.Metrics.Ticks.Load(); got != int64(resumedSnap.Seq-checkpoint.Seq) {
		t.Fatalf("resumed stream applied %d ticks from seq %d to %d", got, checkpoint.Seq, resumedSnap.Seq)
	}
	wantSnap, wantGen = direct(resumedSnap.Seq)
	same("resumed pump", resumedSnap, wantSnap, resumedGen, wantGen)
}

// TestStreamRateFlag refuses at flag parse every rate whose tick
// interval is not a positive duration.
func TestStreamRateFlag(t *testing.T) {
	for _, v := range []string{"NaN", "Inf", "+Inf", "-Inf", "0", "-0", "-1", "1e9", "2e9", "1e300", "abc", ""} {
		if r, err := parseRate(v); err == nil {
			t.Errorf("-stream-rate %q accepted as %v", v, r)
		}
	}
	for _, v := range []string{"8", "0.5", "1e-3", "999999999"} {
		if r, err := parseRate(v); err != nil || time.Duration(float64(time.Second)/r) <= 0 {
			t.Errorf("-stream-rate %q: %v, %v ticks/s", v, err, r)
		}
	}
}

// TestLiveFeedResume restarts a -feed stream from its checkpoint twice:
// once against an upstream whose window slid but still overlaps the
// checkpoint (the rows it holds drop as duplicates), once against one
// that slid past it (the missed rows gap-fill). Each life ends exactly
// where a streamer fed directly with the checkpointed rows plus the
// new upstream's does.
func TestLiveFeedResume(t *testing.T) {
	full := tracegen.HighVolatility(7)
	epoch := time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)
	path := filepath.Join(t.TempDir(), "plans.snap")
	rows := map[uint64][]float64{} // by sequence number: what the stream holds

	// life serves full's hours [from, to) as the upstream of one backend
	// life, runs it until it has taken every served row, checks it
	// against the reference, and crashes it: only the checkpointed rows
	// survive. It returns the life's streamer, the seq of the
	// upstream's first row and the checkpoint the life resumed from.
	var checkpoint *quote.StreamerSnapshot
	life := func(from, to int64) (*quote.Streamer, uint64, *quote.StreamerSnapshot) {
		resumed := checkpoint
		upstream := httptest.NewServer(spotapi.Handler(full.Slice(from*trace.Hour, to*trace.Hour), epoch))
		defer upstream.Close()
		served, start, err := (&spotapi.Client{BaseURL: upstream.URL}).Fetch(context.Background(), time.Time{}, time.Time{}, trace.DefaultStep)
		if err != nil {
			t.Fatal(err)
		}
		first := uint64(start.Unix()/trace.DefaultStep) + 1
		last := first + uint64(served.Series[0].Len()) - 1
		for seq := first; seq <= last; seq++ {
			if rows[seq] == nil {
				rows[seq] = served.PricesAt(served.Start() + int64(seq-first)*served.Step())
			}
		}

		ctx, cancel := context.WithCancel(context.Background())
		st, pump := openLiveFeed(ctx, streamers(path), upstream.URL)
		sub, err := st.Subscribe(shape)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { pump(); close(done) }()
		waitSeq(t, st, last)
		cancel()
		<-done

		ref := &quote.Streamer{Zones: full.Zones(), Step: trace.DefaultStep}
		var refSub *quote.StreamSub
		seqs := make([]uint64, 0, len(rows))
		for seq := range rows {
			seqs = append(seqs, seq)
		}
		slices.Sort(seqs)
		for _, seq := range seqs {
			if err := ref.Ingest(seq, rows[seq]); err != nil {
				t.Fatal(err)
			}
			if refSub == nil { // after the first row, as quoted's clients
				if refSub, err = ref.Subscribe(shape); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, _ := json.Marshal(st.Snapshot())
		want, _ := json.Marshal(ref.Snapshot())
		if !bytes.Equal(got, want) || st.Generation(sub) != ref.Generation(refSub) {
			t.Fatalf("hours [%d,%d): stream at seq %d gen %d, reference at seq %d gen %d; snapshots equal %v", from, to,
				st.Seq(), st.Generation(sub), ref.Seq(), ref.Generation(refSub), bytes.Equal(got, want))
		}

		if checkpoint, err = (&quote.FileStore{Path: path}).Load(); err != nil || checkpoint == nil {
			t.Fatalf("no checkpoint: %v", err)
		}
		for seq := range rows {
			if seq > checkpoint.Seq {
				delete(rows, seq)
			}
		}
		return st, first, resumed
	}

	life(0, 12)
	st, first, cp := life(2, 14) // overlaps the checkpoint
	if st.Metrics.Restores.Load() != 1 || st.Metrics.DupTicks.Load() != int64(cp.Seq-first+1) || st.Metrics.GapFills.Load() != 0 {
		t.Fatalf("overlapping resume: restores %d, dup ticks %d, gap fills %d; want 1, %d, 0", st.Metrics.Restores.Load(),
			st.Metrics.DupTicks.Load(), st.Metrics.GapFills.Load(), cp.Seq-first+1)
	}
	st, first, cp = life(20, 30) // slid past the checkpoint
	if st.Metrics.Restores.Load() != 1 || st.Metrics.DupTicks.Load() != 0 || st.Metrics.GapFills.Load() != int64(first-cp.Seq-1) {
		t.Fatalf("gapped resume: restores %d, dup ticks %d, gap fills %d; want 1, 0, %d", st.Metrics.Restores.Load(),
			st.Metrics.DupTicks.Load(), st.Metrics.GapFills.Load(), first-cp.Seq-1)
	}

	// A feed starting more than the retained backlog past the checkpoint
	// would gap-fill every tick between: the checkpoint is refused.
	for _, tc := range []struct {
		first uint64
		seq   uint64 // after resume
	}{{checkpoint.Seq + quote.DefaultStreamBacklog, checkpoint.Seq}, {checkpoint.Seq + quote.DefaultStreamBacklog + 1, 0}} {
		if st := streamers(path)(full.Zones(), 0, trace.DefaultStep, tc.first); st.Seq() != tc.seq {
			t.Fatalf("feed starting at seq %d resumed at %d, want %d", tc.first, st.Seq(), tc.seq)
		}
	}
}
