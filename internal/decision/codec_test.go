package decision

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sampleRecords covers the encoder's edge shapes: empty rivals, empty
// zones, negative and extreme floats, escaped strings.
func sampleRecords() []Record {
	return []Record{
		{Seq: 0, Time: 432000, Trigger: "begin", Switched: true,
			Chosen: Alt{Bid: 0.81, Zones: []int{0, 2}, Policy: "periodic", Cost: 14.25},
			Ranked: []Alt{
				{Bid: 0.81, Zones: []int{0, 2}, Policy: "periodic", Cost: 14.25},
				{Bid: 0.47, Zones: []int{1}, Policy: "markov-daly", Cost: 15.5},
			}},
		{Seq: 1, Time: 435600, Trigger: "hour-boundary", Switched: false,
			Chosen: Alt{Bid: 2.40, Policy: "on-demand", Cost: 0}},
		{Seq: 2, Time: 439200, Trigger: `weird"trigger\with`, Switched: false,
			Chosen: Alt{Bid: 1e-7, Zones: []int{3}, Policy: "p\x01q", Cost: -3.25}},
		{Seq: 3, Time: -1, Trigger: "provider-kill", Switched: true,
			Chosen: Alt{Bid: math.MaxFloat64, Zones: []int{0}, Policy: "periodic", Cost: math.MaxFloat64}},
	}
}

// TestRecordRoundTrip checks encode → decode → encode is the identity
// on both the value and the bytes.
func TestRecordRoundTrip(t *testing.T) {
	for i, rec := range sampleRecords() {
		line := AppendRecord(nil, &rec)
		got, err := parseRecord(line)
		if err != nil {
			t.Fatalf("record %d: %v\n%s", i, err, line)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d round-trip changed the value:\nin  %+v\nout %+v", i, rec, got)
		}
		again := AppendRecord(nil, &got)
		if !bytes.Equal(line, again) {
			t.Fatalf("record %d re-encode not byte-identical:\n%s\n%s", i, line, again)
		}
	}
}

// TestRecordEncodeClampsNonFinite verifies Inf/NaN predicted costs
// encode as valid JSON (clamped to MaxFloat64) rather than crashing the
// log writer.
func TestRecordEncodeClampsNonFinite(t *testing.T) {
	rec := Record{Trigger: "begin", Chosen: Alt{Bid: 0.81, Policy: "periodic", Cost: math.Inf(1)},
		Ranked: []Alt{{Bid: 0.81, Policy: "periodic", Cost: math.NaN()}}}
	line := AppendRecord(nil, &rec)
	got, err := parseRecord(line)
	if err != nil {
		t.Fatalf("clamped record does not parse: %v\n%s", err, line)
	}
	if got.Chosen.Cost != math.MaxFloat64 || got.Ranked[0].Cost != math.MaxFloat64 {
		t.Fatalf("non-finite costs not clamped: %+v", got)
	}
}

// TestReadWriteRecords round-trips a multi-record JSON-lines stream,
// including blank lines.
func TestReadWriteRecords(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := writeRecords(&buf, recs); err != nil {
		t.Fatal(err)
	}
	withBlanks := strings.ReplaceAll(buf.String(), "\n", "\n\n")
	got, err := readRecords(strings.NewReader(withBlanks))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("stream round-trip changed records:\nin  %+v\nout %+v", recs, got)
	}
}

// TestReadRecordsRejectsGarbage checks a corrupt line surfaces a parse
// error naming the line.
func TestReadRecordsRejectsGarbage(t *testing.T) {
	_, err := readRecords(strings.NewReader("{\"seq\":0,\"time\":1,\"trigger\":\"begin\",\"switched\":false,\"chosen\":{\"bid\":1,\"policy\":\"p\",\"cost\":1}}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("corrupt line not reported: %v", err)
	}
}

// readRecords decodes a JSON-lines decision log, skipping blank lines.
func readRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, err := parseRecord(line)
		if err != nil {
			return nil, fmt.Errorf("decision: line %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// writeRecords encodes records as JSON lines, one per record.
func writeRecords(w io.Writer, records []Record) error {
	var buf []byte
	for i := range records {
		buf = AppendRecord(buf[:0], &records[i])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// parseRecord decodes one JSON line into a record.
func parseRecord(line []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return Record{}, fmt.Errorf("decision: bad record: %w", err)
	}
	return r, nil
}
