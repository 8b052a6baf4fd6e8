package markov

import "math"

// ExpectedUptimeExact computes E[T_u] in closed form: the expected
// absorption time of the chain restricted to up states (price ≤ bid).
// With U the up→up transition sub-matrix and each transition taking one
// step, the expected uptimes E satisfy (I − U)·E = step·1; a singular
// system means the chain can remain in the up set forever, i.e. the
// expected uptime is infinite.
//
// It equals the limit of the Appendix B Chapman-Kolmogorov iteration
// (ExpectedUptime with an unbounded horizon) but costs one small linear
// solve instead of thousands of matrix-vector products, which matters
// when the Markov-Daly policy reschedules inside large experiment
// sweeps.
func (m *Model) ExpectedUptimeExact(bid, currentPrice float64) float64 {
	start := m.StateOf(currentPrice)
	if m.States[start] > bid {
		return 0
	}
	// Collect up states and the start's position among them.
	var upIdx []int
	pos := 0
	for i, p := range m.States {
		if p <= bid {
			if i == start {
				pos = len(upIdx)
			}
			upIdx = append(upIdx, i)
		}
	}
	n := len(upIdx)
	aug := make([]float64, n*n) // I − U
	x := make([]float64, n)     // step·1
	for r, i := range upIdx {
		x[r] = float64(m.Step)
		for c, j := range upIdx {
			v := -m.Trans[i][j]
			if r == c {
				v += 1
			}
			aug[r*n+c] = v
		}
	}
	return solveUptime(aug, x, n, pos)
}

// UptimeSolver is the elimination workspace of WindowFitter.Uptime,
// kept across calls so that a solve allocates nothing once it has held
// the largest system.
//
// An UptimeSolver is not safe for concurrent use.
type UptimeSolver struct {
	aug []float64
	x   []float64
}

// system returns the workspace of an n-state system: the n×n matrix,
// row-major, and the right-hand side.
func (s *UptimeSolver) system(n int) (aug, x []float64) {
	if cap(s.aug) < n*n {
		s.aug = make([]float64, n*n)
		s.x = make([]float64, n)
	}
	return s.aug[:n*n], s.x[:n]
}

// solveUptime solves aug·E = x in place, aug n×n row-major, and returns
// E[pos]: Gaussian elimination with partial pivoting on the
// single-column system, mat.Solve's arithmetic and 1e-12 singularity
// threshold. A singular system, a negative or a NaN result is +Inf.
func solveUptime(aug, x []float64, n, pos int) float64 {
	for col := 0; col < n; col++ {
		pivot := col
		best := math.Abs(aug[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug[r*n+col]); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-12 {
			return math.Inf(1) // singular: the up set can hold forever
		}
		if pivot != col {
			ri, rj := aug[pivot*n:(pivot+1)*n], aug[col*n:(col+1)*n]
			for k := range ri {
				ri[k], rj[k] = rj[k], ri[k]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		pv := aug[col*n+col]
		for r := col + 1; r < n; r++ {
			f := aug[r*n+col] / pv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				aug[r*n+c] -= f * aug[col*n+c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		sum := x[col]
		for k := col + 1; k < n; k++ {
			sum -= aug[col*n+k] * x[k]
		}
		x[col] = sum / aug[col*n+col]
	}
	v := x[pos]
	if v < 0 || math.IsNaN(v) {
		// Numerical noise on a nearly-singular system: treat as
		// effectively unbounded.
		return math.Inf(1)
	}
	return v
}
