package mat

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization meets a (numerically)
// singular matrix.
var ErrSingular = errors.New("mat: matrix is singular")

// LU holds an LU factorization with partial pivoting of a square matrix.
// A zero LU is a valid empty workspace: Refactor grows its buffers on
// first use and reuses them afterwards, so repeated factorizations of
// same-sized systems allocate nothing.
type LU struct {
	lu   *Mat
	piv  []int
	sign int

	// col and x are SolveInto's per-column scratch, grown on first use.
	col Vec
	x   Vec
}

// NewLU returns a preallocated factorization workspace for n×n systems.
func NewLU(n int) *LU {
	return &LU{lu: New(n, n), piv: make([]int, n), col: NewVec(n), x: NewVec(n)}
}

// grow sizes the factorization workspace for n×n systems. Cold path: it
// allocates only when the system outgrows the workspace (declared in the
// hotalloc analyzer's cold list), so repeated same-sized factorizations
// and solves stay allocation-free.
func (f *LU) grow(n int) {
	if f.lu == nil || f.lu.Rows != n || f.lu.Cols != n {
		f.lu = New(n, n)
		f.piv = make([]int, n)
	}
	if len(f.col) != n {
		f.col = NewVec(n)
		f.x = NewVec(n)
	}
}

// FactorLU computes the LU factorization of a square matrix a with partial
// pivoting. It returns ErrSingular when a pivot underflows.
func FactorLU(a *Mat) (*LU, error) {
	f := &LU{}
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor computes the LU factorization of a into the existing
// workspace, reusing its buffers when a matches their size. It is the
// allocation-free twin of FactorLU for hot paths that repeatedly solve
// same-sized systems. The arithmetic is identical to FactorLU's, so both
// paths produce bit-identical factors.
func (f *LU) Refactor(a *Mat) error {
	if a.Rows != a.Cols {
		return ErrDimensionMismatch
	}
	n := a.Rows
	f.grow(n)
	lu, piv := f.lu, f.piv
	CloneInto(lu, a)
	for i := range piv {
		piv[i] = i
	}
	sign := 1

	for k := 0; k < n; k++ {
		// Partial pivot: find the row with the largest magnitude in column k.
		p := k
		max := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > max {
				max = v
				p = i
			}
		}
		if max < 1e-14 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[k*n+j] = lu.Data[k*n+j], lu.Data[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivot := lu.Data[k*n+k]
		rowk := lu.Data[k*n+k+1 : k*n+n]
		for i := k + 1; i < n; i++ {
			rowi := lu.Data[i*n+k : i*n+n]
			m := rowi[0] / pivot
			rowi[0] = m
			for j, ukj := range rowk {
				rowi[1+j] -= m * ukj
			}
		}
	}
	f.sign = sign
	return nil
}

// SolveVecInto solves a·x = b into dst. dst must have length n and must
// not alias b (the permutation reads b at arbitrary indices while dst is
// written).
func (f *LU) SolveVecInto(dst, b Vec) error {
	n := f.lu.Rows
	if len(b) != n || len(dst) != n {
		return ErrDimensionMismatch
	}
	if sharesBacking(dst, b) {
		panic("mat: SolveVecInto destination aliases the right-hand side")
	}
	x := dst
	lu := f.lu.Data
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (L has an implicit unit diagonal).
	for i := 1; i < n; i++ {
		row := lu[i*n : i*n+i]
		xi := x[i]
		for j, lij := range row {
			xi -= lij * x[j]
		}
		x[i] = xi
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n+i+1 : i*n+n]
		xi := x[i]
		for j, uij := range row {
			xi -= uij * x[i+1+j]
		}
		x[i] = xi / lu[i*n+i]
	}
	return nil
}

// Solve solves a·X = B column by column.
func (f *LU) Solve(b *Mat) (*Mat, error) {
	out := New(f.lu.Rows, b.Cols)
	if err := f.SolveInto(out, b); err != nil {
		return nil, err
	}
	return out, nil
}

// SolveInto solves a·X = B into dst column by column, reusing the
// workspace's column scratch. dst must be n×B.Cols and must not alias b.
func (f *LU) SolveInto(dst, b *Mat) error {
	n := f.lu.Rows
	if b.Rows != n || dst.Rows != n || dst.Cols != b.Cols {
		return ErrDimensionMismatch
	}
	mustNotAlias(dst, b, "SolveInto")
	f.grow(n)
	bc, dc := b.Cols, dst.Cols
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			f.col[i] = b.Data[i*bc+j]
		}
		if err := f.SolveVecInto(f.x, f.col); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			dst.Data[i*dc+j] = f.x[i]
		}
	}
	return nil
}

// SolveMat solves a·X = B for a square matrix a.
func SolveMat(a, b *Mat) (*Mat, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}
