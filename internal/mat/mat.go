package mat

import (
	"fmt"
	"math"
	"strings"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero Rows×Cols matrix.
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: New(%d, %d) negative dimension", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must have equal length.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: FromRows ragged row %d: %d != %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a diagonal matrix with the given diagonal entries.
func Diag(d []float64) *Mat {
	m := New(len(d), len(d))
	for i, v := range d {
		m.Set(i, i, v)
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 {
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) {
	m.Data[i*m.Cols+j] = v
}

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := New(m.Rows, m.Cols)
	CloneInto(out, m)
	return out
}

// T returns the transpose of m.
func (m *Mat) T() *Mat {
	out := New(m.Cols, m.Rows)
	TransposeInto(out, m)
	return out
}

// Add returns m + b.
func (m *Mat) Add(b *Mat) *Mat {
	m.mustSameShape(b, "Add")
	out := New(m.Rows, m.Cols)
	AddInto(out, m, b)
	return out
}

// Sub returns m - b.
func (m *Mat) Sub(b *Mat) *Mat {
	m.mustSameShape(b, "Sub")
	out := New(m.Rows, m.Cols)
	SubInto(out, m, b)
	return out
}

// Scale returns s * m.
func (m *Mat) Scale(s float64) *Mat {
	out := New(m.Rows, m.Cols)
	ScaleInto(out, s, m)
	return out
}

// Mul returns the matrix product m · b.
func (m *Mat) Mul(b *Mat) *Mat {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul %dx%d by %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := New(m.Rows, b.Cols)
	MulInto(out, m, b)
	return out
}

// MulVec returns the matrix-vector product m · v.
func (m *Mat) MulVec(v Vec) Vec {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec %dx%d by %d", m.Rows, m.Cols, len(v)))
	}
	out := NewVec(m.Rows)
	MulVecInto(out, m, v)
	return out
}

// Symmetrize returns (m + mᵀ)/2, useful to keep covariance matrices
// numerically symmetric.
func (m *Mat) Symmetrize() *Mat {
	if m.Rows != m.Cols {
		panic("mat: Symmetrize on non-square matrix")
	}
	out := New(m.Rows, m.Cols)
	SymmetrizeInto(out, m)
	return out
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// m and b, or NaN when any difference is NaN (a NaN entry, or equal
// infinities), so that a tolerance test `d < tol` fails on it.
func (m *Mat) MaxAbsDiff(b *Mat) float64 {
	m.mustSameShape(b, "MaxAbsDiff")
	var d float64
	for i := range m.Data {
		a := math.Abs(m.Data[i] - b.Data[i])
		if math.IsNaN(a) {
			return a
		}
		if a > d {
			d = a
		}
	}
	return d
}

// IsFinite reports whether every entry of m is finite.
func (m *Mat) IsFinite() bool {
	for _, x := range m.Data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// String renders m for debugging.
func (m *Mat) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%9.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func (m *Mat) mustSameShape(b *Mat, op string) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s %dx%d vs %dx%d", op, m.Rows, m.Cols, b.Rows, b.Cols))
	}
}
