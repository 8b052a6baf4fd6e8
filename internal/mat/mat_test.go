package mat

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestFromRowsAndAccessors(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %g", m.At(1, 0))
	}
	m.Set(1, 0, 9)
	if m.At(1, 0) != 9 {
		t.Fatal("Set failed")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fromRows accepted ragged rows")
		}
	}()
	fromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.transpose()
	if mt.Rows != 3 || mt.Cols != 2 || mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Fatalf("T = %+v", mt)
	}
}

func TestMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := a.mul(b)
	want := fromRows([][]float64{{19, 22}, {43, 50}})
	for i := range want.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("Mul = %v, want %v", c.Data, want.Data)
		}
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(vals [6]float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 1
			}
		}
		m := fromRows([][]float64{vals[0:3], vals[3:6]})
		p := m.mul(identity(3))
		for i := range m.Data {
			if p.Data[i] != m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := fromRows([][]float64{{1, 2}})
	b := fromRows([][]float64{{3, 5}})
	if got := a.add(b); got.At(0, 1) != 7 {
		t.Fatalf("Add = %v", got.Data)
	}
	if got := b.sub(a); got.At(0, 0) != 2 {
		t.Fatalf("Sub = %v", got.Data)
	}
	if got := a.scale(3); got.At(0, 1) != 6 {
		t.Fatalf("Scale = %v", got.Data)
	}
}

func TestSolve(t *testing.T) {
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	b := fromRows([][]float64{{5}, {10}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 → x = 1, y = 3.
	if !approx(x.At(0, 0), 1, 1e-9) || !approx(x.At(1, 0), 3, 1e-9) {
		t.Fatalf("Solve = %v", x.Data)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero on the diagonal requires a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	b := fromRows([][]float64{{2}, {3}})
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(x.At(0, 0), 3, 1e-9) || !approx(x.At(1, 0), 2, 1e-9) {
		t.Fatalf("Solve = %v", x.Data)
	}
}

func TestSolveSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	b := fromRows([][]float64{{1}, {2}})
	if _, err := Solve(a, b); !errors.Is(err, ErrSingular) {
		t.Fatalf("Solve singular err = %v", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(New(2, 3), New(2, 1)); err == nil {
		t.Fatal("Solve accepted non-square A")
	}
	if _, err := Solve(New(2, 2), New(3, 1)); err == nil {
		t.Fatal("Solve accepted mismatched B")
	}
}

func TestInverse(t *testing.T) {
	a := fromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := a.mul(inv)
	id := identity(2)
	for i := range id.Data {
		if !approx(prod.Data[i], id.Data[i], 1e-9) {
			t.Fatalf("A·A⁻¹ = %v", prod.Data)
		}
	}
}

func TestLeastSquaresRecoversCoefficients(t *testing.T) {
	// y = 2*x1 - 3*x2 + noiseless.
	rng := rand.New(rand.NewPCG(1, 2))
	n := 50
	x := New(n, 2)
	y := New(n, 1)
	for i := 0; i < n; i++ {
		x1, x2 := rng.Float64(), rng.Float64()
		x.Set(i, 0, x1)
		x.Set(i, 1, x2)
		y.Set(i, 0, 2*x1-3*x2)
	}
	beta, err := leastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(beta.At(0, 0), 2, 1e-6) || !approx(beta.At(1, 0), -3, 1e-6) {
		t.Fatalf("beta = %v", beta.Data)
	}
}

func TestLeastSquaresCollinearFallback(t *testing.T) {
	// Two identical regressors: XᵀX is singular; ridge fallback must
	// return a finite solution whose fit is still exact.
	n := 20
	x := New(n, 2)
	y := New(n, 1)
	for i := 0; i < n; i++ {
		v := float64(i)
		x.Set(i, 0, v)
		x.Set(i, 1, v)
		y.Set(i, 0, 4*v)
	}
	beta, err := leastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if got := beta.At(0, 0) + beta.At(1, 0); !approx(got, 4, 1e-3) {
		t.Fatalf("collinear beta sum = %g, want 4", got)
	}
}

// leastSquares solves min ‖X·β − Y‖² by streaming X's rows into
// NormalEquations.
func leastSquares(x, y *Matrix) (*Matrix, error) {
	ne := NewNormalEquations(x.Cols, y.Cols)
	for i := 0; i < x.Rows; i++ {
		ne.Add(x.Data[i*x.Cols:(i+1)*x.Cols], y.Data[i*y.Cols:(i+1)*y.Cols])
	}
	return ne.Solve()
}

// sameBits reports whether two matrices hold the same float64 bit
// patterns (so +0 and −0 differ).
func sameBits(a, b *Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// The streamed normal equations and VecMul must sum in mul's order,
// zero factors skipped, so signed zeros and rounding match the
// materialized products bit for bit.
func TestNormalEquationsMatchMaterialized(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	pick := func() float64 {
		switch rng.IntN(5) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		default:
			return rng.NormFloat64() * math.Pow(10, float64(rng.IntN(12)-6))
		}
	}
	const n, p, q = 200, 6, 3
	x, y, b := New(n, p), New(n, q), New(p, q)
	for _, m := range []*Matrix{x, y, b} {
		for i := range m.Data {
			m.Data[i] = pick()
		}
	}
	checkNormalEquations(t, x, y, b)
	// A skipped zero factor keeps 0·Inf from turning an entry into NaN.
	inf := math.Inf(1)
	checkNormalEquations(t,
		fromRows([][]float64{{0, inf, 1}, {1, 2, 0}}),
		fromRows([][]float64{{inf}, {3}}),
		fromRows([][]float64{{inf}, {2}, {-1}}))
}

// checkNormalEquations streams the rows of x and y and compares the
// equations with X.transpose().mul(X) and X.transpose().mul(Y), and
// VecMul over b with the rows of x.mul(b).
func checkNormalEquations(t *testing.T, x, y, b *Matrix) {
	t.Helper()
	p, q := x.Cols, y.Cols
	ne := NewNormalEquations(p, q)
	for i := 0; i < x.Rows; i++ {
		ne.Add(x.Data[i*p:(i+1)*p], y.Data[i*q:(i+1)*q])
	}
	xt := x.transpose()
	if !sameBits(ne.XtX, xt.mul(x)) || !sameBits(ne.XtY, xt.mul(y)) {
		t.Fatalf("streamed normal equations %v, %v differ from XᵀX, XᵀY", ne.XtX.Data, ne.XtY.Data)
	}
	prod := x.mul(b)
	out := make([]float64, b.Cols)
	for i := 0; i < x.Rows; i++ {
		got := fromRows([][]float64{b.VecMul(x.Data[i*p:(i+1)*p], out)})
		want := fromRows([][]float64{prod.Data[i*b.Cols : (i+1)*b.Cols]})
		if !sameBits(got, want) {
			t.Fatalf("row %d: VecMul %v, Mul %v", i, got.Data, want.Data)
		}
	}
}

func TestNormalEquationsRidgeKeepsEquations(t *testing.T) {
	ne := NewNormalEquations(2, 1)
	for i := 0; i < 5; i++ {
		v := float64(i)
		ne.Add([]float64{v, v}, []float64{2 * v})
	}
	before := ne.XtX.Clone()
	if _, err := Solve(ne.XtX, ne.XtY); !errors.Is(err, ErrSingular) {
		t.Fatalf("collinear XᵀX solved without the ridge: %v", err)
	}
	if _, err := ne.Solve(); err != nil {
		t.Fatal(err)
	}
	if !sameBits(ne.XtX, before) {
		t.Fatal("ridge fallback modified XᵀX")
	}
}

func TestMaxAbs(t *testing.T) {
	m := fromRows([][]float64{{-5, 2}, {3, -4}})
	if got := m.maxAbs(); got != 5 {
		t.Fatalf("maxAbs = %g", got)
	}
	if got := New(0, 0).maxAbs(); got != 0 {
		t.Fatalf("empty maxAbs = %g", got)
	}
}

func TestSolveRandomSystemsProperty(t *testing.T) {
	// For random well-conditioned A, Solve(A, A·x) recovers x.
	rng := rand.New(rand.NewPCG(3, 4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(6)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		want := New(n, 1)
		for i := 0; i < n; i++ {
			want.Set(i, 0, rng.NormFloat64())
		}
		b := a.mul(want)
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < n; i++ {
			if !approx(got.At(i, 0), want.At(i, 0), 1e-7) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got.At(i, 0), want.At(i, 0))
			}
		}
	}
}

// fromRows builds a matrix from row slices; all rows must share a length.
func fromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged row %d: %d vs %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// identity returns the n-by-n identity matrix.
func identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// transpose returns the transpose.
func (m *Matrix) transpose() *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// mul returns m × other.
func (m *Matrix) mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		panic(fmt.Sprintf("mat: mul shape mismatch %dx%d × %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := New(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			rowOut := out.Data[i*out.Cols : (i+1)*out.Cols]
			rowOther := other.Data[k*other.Cols : (k+1)*other.Cols]
			for j := range rowOther {
				rowOut[j] += a * rowOther[j]
			}
		}
	}
	return out
}

// add returns m + other.
func (m *Matrix) add(other *Matrix) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("mat: add shape mismatch")
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += other.Data[i]
	}
	return out
}

// sub returns m - other.
func (m *Matrix) sub(other *Matrix) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("mat: sub shape mismatch")
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= other.Data[i]
	}
	return out
}

// scale returns s·m.
func (m *Matrix) scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// inverse returns A⁻¹.
func inverse(a *Matrix) (*Matrix, error) {
	return Solve(a, identity(a.Rows))
}

// maxAbs returns the largest absolute element; 0 for an empty matrix.
func (m *Matrix) maxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}
