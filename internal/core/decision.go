package core

import "math"

// Decision triggers: what woke the strategy up at a decision point.
// They mirror the paper's §7 Adaptive triggers (a zone terminated
// out-of-bid, a billing hour ended) plus the run start and the offline
// Rank entry point.
const (
	// TriggerBegin marks the initial permutation choice at run start.
	TriggerBegin = "begin"
	// TriggerProviderKill marks a decision forced by an out-of-bid
	// termination (possibly coincident with an hour boundary).
	TriggerProviderKill = "provider-kill"
	// TriggerHourBoundary marks a decision at a billing-hour boundary.
	TriggerHourBoundary = "hour-boundary"
	// TriggerRank marks an offline Evaluator.Rank planning sweep.
	TriggerRank = "rank"
)

// DecisionAlt is one (bid, zone set, policy) permutation with its
// Inequality (1) predicted remaining cost, as scored at a decision
// point. Non-finite predicted costs are clamped to math.MaxFloat64 so
// every alternative serializes cleanly and ranks last.
type DecisionAlt struct {
	// Bid is the permutation's bid in dollars per hour.
	Bid float64 `json:"bid"`
	// Zones holds trace zone indices (the redundancy set), ascending.
	Zones []int `json:"zones,omitempty"`
	// Policy is the checkpoint policy's descriptor (PolicySpec.String).
	Policy string `json:"policy"`
	// Cost is the predicted remaining cost in dollars.
	Cost float64 `json:"cost"`
}

// DecisionPoint captures one strategy decision: the chosen permutation
// and every ranked rival with its predicted cost, ordered best-first.
// Ranked — and the Zones slices inside it — alias per-decision scratch
// buffers owned by the producer; a DecisionSink must deep-copy anything
// it retains past the RecordDecision call.
type DecisionPoint struct {
	// Seq numbers the decision within its run, starting at 0. Producers
	// without a run-scoped counter (Evaluator.Rank) pass -1 and let the
	// sink assign the sequence.
	Seq int `json:"seq"`
	// Time is the absolute simulation time of the decision (for Rank,
	// the end of the history window).
	Time int64 `json:"time"`
	// Trigger is one of the Trigger constants.
	Trigger string `json:"trigger"`
	// Switched reports whether the decision changed the running spec
	// (always true at begin, false when the incumbent was kept).
	Switched bool `json:"switched"`
	// Chosen is the permutation the decision installed or kept.
	Chosen DecisionAlt `json:"chosen"`
	// Ranked is the full scored grid, best-first (predicted cost
	// ascending, ties toward higher bid, then fewer zones, then policy
	// name). Empty for pinned replay decisions, which score nothing.
	Ranked []DecisionAlt `json:"ranked,omitempty"`
}

// DecisionSink receives decision points as they are made. Sinks must be
// safe for use from the goroutine running the simulation and must copy
// the point's slices before returning (see DecisionPoint.Ranked).
type DecisionSink interface {
	// RecordDecision is called once per decision point, in order.
	RecordDecision(p DecisionPoint)
}

// sanitizeCost clamps non-finite predicted costs (no-history sweeps
// yield +Inf) to math.MaxFloat64 so records stay JSON-encodable while
// still ranking strictly worse than any real prediction.
func sanitizeCost(c float64) float64 {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return math.MaxFloat64
	}
	return c
}
