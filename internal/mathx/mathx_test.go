package mathx

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(0, 3) should panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows content wrong: %+v", m)
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("FromRows(nil) should error")
	}
	if _, err := FromRows([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestIdentityMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	i2, _ := FromRows([][]float64{{1, 0}, {0, 1}})
	prod, err := Mul(a, i2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 2; c++ {
			if prod.At(r, c) != a.At(r, c) {
				t.Errorf("A·I != A at (%d,%d)", r, c)
			}
		}
	}
	if _, err := Mul(a, NewMatrix(3, 2)); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b, _ := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	p, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{58, 64}, {139, 154}}
	for i := range want {
		for j := range want[i] {
			if p.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, p.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	v, err := MulVec(a, []float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 17 || v[1] != 39 {
		t.Errorf("MulVec = %v", v)
	}
	if _, err := MulVec(a, []float64{1}); err == nil {
		t.Error("MulVec dimension mismatch should error")
	}
}

func TestCloneAddDiag(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Error("Clone should not share storage")
	}
	sq, _ := FromRows([][]float64{{1, 0}, {0, 1}})
	sq.AddDiag(2)
	if sq.At(0, 0) != 3 || sq.At(1, 1) != 3 || sq.At(0, 1) != 0 {
		t.Errorf("AddDiag wrong: %+v", sq)
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Error("Dot wrong")
	}
	if Dot(nil, nil) != 0 {
		t.Error("Dot of empty should be 0")
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]]
	a, _ := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(l.At(0, 0), 2, 1e-12) || !almost(l.At(1, 0), 1, 1e-12) ||
		!almost(l.At(1, 1), math.Sqrt(2), 1e-12) || l.At(0, 1) != 0 {
		t.Errorf("Cholesky factor wrong: %+v", l)
	}
}

func TestCholeskyErrors(t *testing.T) {
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Error("non-square should error")
	}
	neg, _ := FromRows([][]float64{{-1, 0}, {0, 1}})
	if _, err := Cholesky(neg); err != ErrNotPositiveDefinite {
		t.Errorf("negative-definite err = %v, want ErrNotPositiveDefinite", err)
	}
	// Singular (rank 1) matrix.
	sing, _ := FromRows([][]float64{{1, 1}, {1, 1}})
	if _, err := Cholesky(sing); err == nil {
		t.Error("singular matrix should fail Cholesky")
	}
}

func TestCholSolveRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(12)
		// Build SPD matrix A = B·Bᵀ + n·I.
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		bt := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		a, err := Mul(b, bt)
		if err != nil {
			t.Fatal(err)
		}
		a.AddDiag(float64(n))
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		rhs, err := MulVec(a, xTrue)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x, err := CholSolve(l, rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !almost(x[i], xTrue[i], 1e-6*(1+math.Abs(xTrue[i]))) {
				t.Fatalf("trial %d: solve mismatch at %d: %v vs %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestSolveDimensionErrors(t *testing.T) {
	l, _ := FromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	if _, err := SolveLower(l, []float64{1}); err == nil {
		t.Error("SolveLower dim mismatch should error")
	}
	if _, err := SolveUpperT(l, []float64{1}); err == nil {
		t.Error("SolveUpperT dim mismatch should error")
	}
}

func TestLogDet(t *testing.T) {
	// det([[4,0],[0,9]]) = 36.
	a, _ := FromRows([][]float64{{4, 0}, {0, 9}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(LogDet(l), math.Log(36), 1e-12) {
		t.Errorf("LogDet = %v, want log 36", LogDet(l))
	}
}

func TestNormPDF(t *testing.T) {
	if !almost(NormPDF(0), 0.3989422804014327, 1e-15) {
		t.Errorf("NormPDF(0) = %v", NormPDF(0))
	}
	if NormPDF(3) >= NormPDF(0) {
		t.Error("PDF should decrease away from 0")
	}
	if !almost(NormPDF(-1.3), NormPDF(1.3), 1e-15) {
		t.Error("PDF should be symmetric")
	}
}

func TestNormCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.96, 0.9750021048517795},
		{-1.96, 0.024997895148220435},
		{6, 1}, // effectively 1
	}
	for _, c := range cases {
		if got := NormCDF(c.x); !almost(got, c.want, 1e-9) {
			t.Errorf("NormCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestExpectedImprovement(t *testing.T) {
	// Degenerate sigma: EI = max(0, best - mu).
	if got := ExpectedImprovement(3, 0, 5); got != 2 {
		t.Errorf("EI sigma=0 = %v, want 2", got)
	}
	if got := ExpectedImprovement(7, 0, 5); got != 0 {
		t.Errorf("EI sigma=0 worse-mean = %v, want 0", got)
	}
	// At mu == best, EI = sigma * phi(0).
	if got := ExpectedImprovement(5, 2, 5); !almost(got, 2*NormPDF(0), 1e-12) {
		t.Errorf("EI at mean = %v", got)
	}
}

// Property: EI is non-negative and increases with sigma.
func TestQuickEIProperties(t *testing.T) {
	f := func(mu, best float64, s1, s2 uint8) bool {
		if math.IsNaN(mu) || math.IsNaN(best) || math.Abs(mu) > 1e8 || math.Abs(best) > 1e8 {
			return true
		}
		sig1 := float64(s1%100) / 10
		sig2 := sig1 + float64(s2%100)/10 + 0.1
		e1 := ExpectedImprovement(mu, sig1, best)
		e2 := ExpectedImprovement(mu, sig2, best)
		return e1 >= 0 && e2 >= e1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: NormCDF is monotone non-decreasing and bounded in [0,1].
func TestQuickCDFMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		ca, cb := NormCDF(lo), NormCDF(hi)
		return ca >= 0 && cb <= 1 && ca <= cb+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
