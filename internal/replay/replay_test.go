package replay

import (
	"bytes"
	"repro/internal/stats"
	"strings"
	"testing"

	"repro/internal/sim"
)

func sampleArchive() *Archive {
	a := &Archive{Meta: map[string]string{"seed": "1"}}
	a.Add(Record{Regime: "high", Policy: "periodic", Bid: 0.81, N: 1, Window: 0, Cost: 42, DeadlineMet: true})
	a.Add(Record{Regime: "high", Policy: "periodic", Bid: 0.81, N: 1, Window: 1, Cost: 44, DeadlineMet: true})
	a.Add(Record{Regime: "high", Policy: "markov-daly", Bid: 0.81, N: 3, Window: 0, Cost: 20, DeadlineMet: true})
	return a
}

func TestArchiveRoundTrip(t *testing.T) {
	a := sampleArchive()
	var buf bytes.Buffer
	if err := a.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 3 || got.Meta["seed"] != "1" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Records[2].Policy != "markov-daly" || got.Records[2].Cost != 20 {
		t.Fatalf("record mismatch: %+v", got.Records[2])
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	if _, err := Read(strings.NewReader(`{"records":[{"bogus":1}]}`)); err == nil {
		t.Fatal("accepted unknown fields")
	}
	if _, err := Read(strings.NewReader(`{`)); err == nil {
		t.Fatal("accepted truncated JSON")
	}
}

func TestFilterAndAggregates(t *testing.T) {
	a := sampleArchive()
	periodic := func(r Record) bool { return r.Policy == "periodic" }
	costs := a.Costs(periodic)
	if len(costs) != 2 || costs[0] != 42 {
		t.Fatalf("costs = %v", costs)
	}
	box := stats.NewBox(costs)
	if box.Median != 43 {
		t.Fatalf("median = %g", box.Median)
	}
	met, missed := a.Deadlines(func(Record) bool { return true })
	if met != 3 || missed != 0 {
		t.Fatalf("deadlines = %d/%d", met, missed)
	}
}

func TestFromResult(t *testing.T) {
	res := &sim.Result{
		Policy: "periodic", Cost: 12.5, SpotCost: 10, OnDemandCost: 2.5,
		Completed: true, DeadlineMet: true, Checkpoints: 7, Restarts: 2, ProviderKills: 3,
	}
	rec := FromResult(res, "low", 0.15, 300, 0.81, 2, 9)
	if rec.Regime != "low" || rec.Bid != 0.81 || rec.N != 2 || rec.Window != 9 {
		t.Fatalf("coordinates lost: %+v", rec)
	}
	if rec.Cost != 12.5 || rec.Checkpoints != 7 || !rec.DeadlineMet {
		t.Fatalf("outcome lost: %+v", rec)
	}
}
