// Package mat provides the small dense linear algebra kernel used by the
// vector auto-regression analysis: matrix arithmetic, Gaussian
// elimination with partial pivoting, and ordinary least squares over
// normal equations streamed one design row at a time.
//
// It is deliberately minimal — row-major float64 matrices with the
// operations the repository needs — rather than a general BLAS.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// ErrSingular reports a (numerically) singular system.
var ErrSingular = errors.New("mat: singular matrix")

// Solve solves A·X = B for X using Gaussian elimination with partial
// pivoting. A must be square; B may have any number of columns. A and B
// are not modified.
func Solve(a, b *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("mat: Solve needs a square A, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("mat: Solve shape mismatch: A %dx%d, B %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	n := a.Rows
	aug := a.Clone()
	x := b.Clone()
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(aug.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(aug, pivot, col)
			swapRows(x, pivot, col)
		}
		// Eliminate below.
		pv := aug.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aug.At(r, col) / pv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				aug.Set(r, c, aug.At(r, c)-f*aug.At(col, c))
			}
			for c := 0; c < x.Cols; c++ {
				x.Set(r, c, x.At(r, c)-f*x.At(col, c))
			}
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		pv := aug.At(col, col)
		for c := 0; c < x.Cols; c++ {
			sum := x.At(col, c)
			for k := col + 1; k < n; k++ {
				sum -= aug.At(col, k) * x.At(k, c)
			}
			x.Set(col, c, sum/pv)
		}
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// NormalEquations accumulates the least-squares normal equations
// (XᵀX)β = XᵀY one design row at a time, so a caller never holds the
// n×p design X, its transpose or the residuals: memory is O(p² + p·q)
// whatever n is.
type NormalEquations struct {
	XtX *Matrix // p×p
	XtY *Matrix // p×q
}

// NewNormalEquations returns empty normal equations for p regressors
// and q responses.
func NewNormalEquations(p, q int) *NormalEquations {
	return &NormalEquations{XtX: New(p, p), XtY: New(p, q)}
}

// Add accumulates one design row x (length p) and its responses y
// (length q). Every entry sums its terms in row order and skips the
// terms whose x factor is 0, exactly as the materialized products XᵀX
// and XᵀY would sum them in row-major order, so the equations equal
// those products bit for bit.
func (e *NormalEquations) Add(x, y []float64) {
	p, q := e.XtX.Cols, e.XtY.Cols
	for i, a := range x {
		if a == 0 {
			continue
		}
		rowXX := e.XtX.Data[i*p : (i+1)*p]
		for j, v := range x {
			rowXX[j] += a * v
		}
		rowXY := e.XtY.Data[i*q : (i+1)*q]
		for j, v := range y {
			rowXY[j] += a * v
		}
	}
}

// Solve returns the least-squares β (p×q), with a small ridge fallback
// when XᵀX is singular. The equations are not modified.
func (e *NormalEquations) Solve() (*Matrix, error) {
	beta, err := Solve(e.XtX, e.XtY)
	if err == nil {
		return beta, nil
	}
	if !errors.Is(err, ErrSingular) {
		return nil, err
	}
	// Ridge fallback: regularise collinear designs, which arise when a
	// price series holds a constant value across an entire window.
	const lambda = 1e-8
	ridge := e.XtX.Clone()
	for i := 0; i < ridge.Rows; i++ {
		ridge.Set(i, i, ridge.At(i, i)+lambda)
	}
	return Solve(ridge, e.XtY)
}

// VecMul stores the row vector x·m in out and returns it; x has length
// m.Rows and out length m.Cols. It sums k ascending with zero x[k]
// skipped, as the row-major product x·m would.
func (m *Matrix) VecMul(x, out []float64) []float64 {
	clear(out)
	for k, a := range x {
		if a == 0 {
			continue
		}
		row := m.Data[k*m.Cols : (k+1)*m.Cols]
		for j, v := range row {
			out[j] += a * v
		}
	}
	return out
}
