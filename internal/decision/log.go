package decision

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"repro/internal/core"
)

// DefaultLogCapacity is the ring capacity NewLog selects for
// non-positive requests.
const DefaultLogCapacity = 1024

// Log is the bounded decision sink services mount: a fixed-capacity
// ring of the most recent decisions (oldest overwritten first) plus an
// optional append-only JSON-lines writer. Recording is
// allocation-bounded: once the ring has wrapped and its per-slot slice
// backings have grown to the decision shape, RecordDecision allocates
// nothing. A Log is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	ring    []Record
	next    int // write cursor once the ring has wrapped
	total   uint64
	autoSeq int
	w       io.Writer
	werrs   uint64
	encBuf  []byte
}

// NewLog returns a ring log holding capacity records (non-positive
// selects DefaultLogCapacity). When w is non-nil every record is also
// appended to it as one JSON line; write errors are counted, not
// propagated (recording never fails the simulation).
func NewLog(capacity int, w io.Writer) *Log {
	if capacity <= 0 {
		capacity = DefaultLogCapacity
	}
	return &Log{ring: make([]Record, 0, capacity), w: w}
}

// RecordDecision implements core.DecisionSink: deep-copy the point into
// the ring (reusing the slot's slice backings) and append its JSON line
// to the writer, if any. Points with a negative Seq are assigned the
// log's own sequence.
func (l *Log) RecordDecision(p core.DecisionPoint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := p.Seq
	if seq < 0 {
		seq = l.autoSeq
	}
	l.autoSeq++
	var dst *Record
	if len(l.ring) < cap(l.ring) {
		l.ring = l.ring[:len(l.ring)+1]
		dst = &l.ring[len(l.ring)-1]
	} else {
		dst = &l.ring[l.next]
		l.next = (l.next + 1) % len(l.ring)
	}
	copyPoint(dst, p, seq)
	l.total++
	if l.w != nil {
		l.encBuf = AppendRecord(l.encBuf[:0], dst)
		l.encBuf = append(l.encBuf, '\n')
		if _, err := l.w.Write(l.encBuf); err != nil {
			l.werrs++
		}
	}
}

// Records returns a deep copy of the ring's contents, oldest first.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	// next stays 0 until the ring wraps, so this is oldest first either
	// way.
	out := make([]Record, len(l.ring))
	for i := range out {
		src := &l.ring[(l.next+i)%len(l.ring)]
		copyPoint(&out[i], *src, src.Seq)
	}
	return out
}

// Total returns how many decisions have ever been recorded (including
// those the ring has since overwritten).
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Capacity returns the ring capacity.
func (l *Log) Capacity() int { return cap(l.ring) }

// WriteErrors returns how many JSON-line writes have failed.
func (l *Log) WriteErrors() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.werrs
}

// logDump is the /debug/decisions response shape.
type logDump struct {
	// Total counts every decision ever recorded.
	Total uint64 `json:"total"`
	// Capacity is the ring size.
	Capacity int `json:"capacity"`
	// Records holds the retained decisions, oldest first.
	Records []Record `json:"records"`
}

// Handler returns the /debug/decisions HTTP handler: a JSON dump of the
// ring's retained decisions, oldest first, with the lifetime total and
// the ring capacity.
func (l *Log) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		recs := l.Records()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		_ = enc.Encode(logDump{Total: l.Total(), Capacity: l.Capacity(), Records: recs})
	})
}
