// Package daly computes optimal checkpoint intervals.
//
// The Markov-Daly policy (§4.2) feeds the Markov model's expected uptime
// E[T_u] — playing the role of the mean time between failures M — and
// the checkpoint cost δ into Daly's estimate of the optimum checkpoint
// interval [Daly, FGCS 2006]. Both the classic first-order Young
// approximation and Daly's higher-order refinement are provided; the
// ablation bench compares them.
package daly

import "math"

// Young returns Young's first-order optimum checkpoint interval
// √(2·δ·M) for checkpoint cost delta and mean time between failures
// mtbf, both in seconds.
func Young(delta, mtbf float64) float64 {
	if delta <= 0 || mtbf <= 0 {
		return 0
	}
	if math.IsInf(mtbf, 1) {
		return math.Inf(1)
	}
	return math.Sqrt(2 * delta * mtbf)
}

// Optimal returns Daly's higher-order estimate of the optimum compute
// time between checkpoints:
//
//	τ = √(2δM)·[1 + ⅓·√(δ/(2M)) + (1/9)·(δ/(2M))] − δ   for δ < 2M
//	τ = M                                                otherwise
//
// The result is clamped to be non-negative. An infinite MTBF (a zone the
// model expects never to fail at this bid) yields +Inf, letting callers
// fall back to their coarsest schedule.
func Optimal(delta, mtbf float64) float64 {
	if delta <= 0 || mtbf <= 0 {
		return 0
	}
	if math.IsInf(mtbf, 1) {
		return math.Inf(1)
	}
	if delta >= 2*mtbf {
		return mtbf
	}
	r := delta / (2 * mtbf)
	tau := math.Sqrt(2*delta*mtbf)*(1+math.Sqrt(r)/3+r/9) - delta
	if tau < 0 {
		tau = 0
	}
	return tau
}
