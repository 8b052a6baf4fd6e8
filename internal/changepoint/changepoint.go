// Package changepoint implements two-sided CUSUM change detection on
// price streams.
//
// The paper's Rising Edge policy reacts to every upward price tick,
// which its evaluation shows is too eager: noise triggers checkpoints
// while genuine regime shifts are indistinguishable from jitter. CUSUM
// accumulates deviations from a reference level and signals only when
// the cumulative drift exceeds a threshold — the classic sequential
// change detector. The core package's Changepoint policy builds on it
// as an extension of the paper's Edge family.
package changepoint

import (
	"math"
)

// Detector is a two-sided CUSUM detector over a scalar stream.
type Detector struct {
	// Target is the reference level deviations are measured against.
	Target float64
	// Drift is the slack per observation (κ): deviations below it are
	// treated as noise.
	Drift float64
	// Threshold is the cumulative deviation (h) that signals a change.
	Threshold float64

	gPos, gNeg float64
}

// Direction labels which side of the reference level changed.
type Direction int

// Directions.
const (
	None Direction = iota
	Up
	DownShift
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case None:
		return "none"
	case Up:
		return "up"
	case DownShift:
		return "down"
	default:
		return "unknown"
	}
}

// Observe feeds one sample and reports a detected change (if any). On
// detection the detector re-centres on the new level and resets its
// sums, ready to detect the next change.
func (d *Detector) Observe(x float64) Direction {
	dev := x - d.Target
	d.gPos = math.Max(0, d.gPos+dev-d.Drift)
	d.gNeg = math.Max(0, d.gNeg-dev-d.Drift)
	switch {
	case d.gPos > d.Threshold:
		d.Recenter(x)
		return Up
	case d.gNeg > d.Threshold:
		d.Recenter(x)
		return DownShift
	default:
		return None
	}
}

// Recenter moves the reference level and clears the sums.
func (d *Detector) Recenter(target float64) {
	d.Target = target
	d.gPos, d.gNeg = 0, 0
}
