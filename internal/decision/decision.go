// Package decision closes the loop from observability to policy
// improvement for the paper's §7 Adaptive scheme. It has three layers:
//
//   - recording: a DecisionSink implementation (Log, Collector) captures
//     every Adaptive decision — the chosen (bid, zones, policy)
//     permutation plus the predicted costs of all ranked rivals — into
//     an append-only, seed-deterministic decision log (JSON-lines on
//     disk, in-memory ring over HTTP via /debug/decisions on quoted);
//   - counterfactual replay: Replayer re-runs the same trace with an
//     Adaptive whose core.Script pins the recorded prefix and forces
//     one top-k rival, so only the decisions after the rival are priced
//     (on the batched evaluator), and reports the realized regret per
//     decision point. Each replay is bit-identical to a from-scratch
//     oracle run that pins its whole decision log and prices nothing,
//     which the differential test suite asserts cell by cell;
//   - tuning: Tuner searches the Adaptive hyperparameter space (bid
//     grid, history window, headroom/churn thresholds, redundancy
//     bound) with a grid stage plus a seeded evolutionary stage against
//     a weighted multi-objective fitness (cost, deadline margin,
//     checkpoint waste), parallelized on internal/pool and
//     checkpointable so a killed search resumes deterministically.
package decision

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Alt is one ranked permutation of a decision record: bid, zone
// indices, policy descriptor and the Inequality (1) predicted remaining
// cost in dollars.
type Alt = core.DecisionAlt

// Record is one decision-log entry: a core.DecisionPoint deep-copied
// out of its producer's buffers, whose Seq numbers the decision within
// its run from 0. Records are seed-deterministic: replaying the same
// configuration yields a byte-identical log.
type Record = core.DecisionPoint

// copyAlt deep-copies a core alternative into dst, reusing dst's zone
// slice backing when it has capacity (the ring log's steady state
// allocates nothing).
func copyAlt(dst *Alt, src core.DecisionAlt) {
	zones := dst.Zones[:0]
	zones = append(zones, src.Zones...)
	if len(src.Zones) == 0 {
		zones = nil
	}
	*dst = Alt{Bid: src.Bid, Zones: zones, Policy: src.Policy, Cost: src.Cost}
}

// copyPoint deep-copies a decision point into dst under the final
// sequence number, reusing dst's slice backings.
func copyPoint(dst *Record, p core.DecisionPoint, seq int) {
	ranked := dst.Ranked
	if cap(ranked) < len(p.Ranked) {
		grown := make([]Alt, len(p.Ranked))
		copy(grown, ranked[:cap(ranked)])
		ranked = grown
	} else {
		ranked = ranked[:len(p.Ranked)]
	}
	for i := range p.Ranked {
		copyAlt(&ranked[i], p.Ranked[i])
	}
	if len(p.Ranked) == 0 {
		ranked = nil
	}
	chosen := dst.Chosen
	copyAlt(&chosen, p.Chosen)
	*dst = Record{
		Seq:      seq,
		Time:     p.Time,
		Trigger:  p.Trigger,
		Switched: p.Switched,
		Chosen:   chosen,
		Ranked:   ranked,
	}
}

// Collector is the unbounded DecisionSink the replayer and the tests
// use: it appends a deep copy of every decision point in order. Safe
// for concurrent use.
type Collector struct {
	mu   sync.Mutex
	recs []Record
}

// RecordDecision implements core.DecisionSink.
func (c *Collector) RecordDecision(p core.DecisionPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := p.Seq
	if seq < 0 {
		seq = len(c.recs)
	}
	var rec Record
	copyPoint(&rec, p, seq)
	c.recs = append(c.recs, rec)
}

// Records returns the collected decisions in recording order. The
// returned slice is a snapshot; its records are not copied again, so
// callers must not mutate them.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Record(nil), c.recs...)
}

// CountingSink counts decision points and discards them. The tuner
// attaches one across all of its evaluation runs to report search
// throughput in decisions per second.
type CountingSink struct {
	n atomic.Int64
}

// RecordDecision implements core.DecisionSink.
func (s *CountingSink) RecordDecision(core.DecisionPoint) { s.n.Add(1) }

// Count returns how many decisions have been recorded.
func (s *CountingSink) Count() int64 { return s.n.Load() }

// altsEqual reports whether two alternatives name the same permutation
// (bid, zone set, policy family), ignoring predicted cost.
func altsEqual(a, b Alt) bool {
	return a.Bid == b.Bid && a.Policy == b.Policy && slices.Equal(a.Zones, b.Zones)
}
