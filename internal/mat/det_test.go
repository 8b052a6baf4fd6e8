package mat

import (
	"math"
	"testing"
)

func TestDet(t *testing.T) {
	cases := []struct {
		m    *Matrix
		want float64
	}{
		{identity(3), 1},
		{fromRows([][]float64{{2, 0}, {0, 3}}), 6},
		{fromRows([][]float64{{1, 2}, {3, 4}}), -2},
		{fromRows([][]float64{{1, 2}, {2, 4}}), 0},
		{fromRows([][]float64{{0, 1}, {1, 0}}), -1}, // needs pivot swap
		{New(0, 0), 1},
	}
	for i, c := range cases {
		got, err := Det(c.m)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: Det = %g, want %g", i, got, c.want)
		}
	}
}

func TestDetNonSquare(t *testing.T) {
	if _, err := Det(New(2, 3)); err == nil {
		t.Fatal("Det accepted a non-square matrix")
	}
}

func TestDetMultiplicativeProperty(t *testing.T) {
	a := fromRows([][]float64{{3, 1}, {2, 5}})
	b := fromRows([][]float64{{1, 4}, {0, 2}})
	da, _ := Det(a)
	db, _ := Det(b)
	dab, _ := Det(a.mul(b))
	if math.Abs(dab-da*db) > 1e-9 {
		t.Fatalf("det(AB) = %g, det(A)det(B) = %g", dab, da*db)
	}
}
