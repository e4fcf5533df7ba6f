// Package mathx implements the small dense linear-algebra and normal
// distribution kernel that the Bayesian-optimization baseline needs:
// row-major matrices, Cholesky factorization and triangular solves, and the
// standard normal PDF/CDF. Only the standard library is used.
package mathx

import (
	"errors"
	"fmt"
)

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zeroed r×c matrix. It panics if r or c is not positive.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mathx: invalid matrix dims %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must be non-empty and
// of equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("mathx: FromRows needs at least one non-empty row")
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("mathx: ragged rows: row %d has %d cols, want %d", i, len(row), c)
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// AddDiag adds v to every diagonal element of a square matrix in place and
// returns m for chaining.
func (m *Matrix) AddDiag(v float64) *Matrix {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
	return m
}

// Mul returns the matrix product a·b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("mathx: Mul dim mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += aik * b.At(k, j)
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product a·x.
func MulVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, fmt.Errorf("mathx: MulVec dim mismatch %dx%d · %d", a.Rows, a.Cols, len(x))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Dot returns the dot product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
