package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is returned when an iterative solver exceeds its
// iteration budget without meeting its tolerance.
var ErrNoConvergence = errors.New("mat: iteration did not converge")

// SolveDARE solves the discrete algebraic Riccati equation
//
//	P = Aᵀ·P·A − Aᵀ·P·B·(R + Bᵀ·P·B)⁻¹·Bᵀ·P·A + Q
//
// by fixed-point iteration from P₀ = Q. It is used to synthesize the LQR
// recovery gain. A is n×n, B is n×m, Q is n×n PSD, R is m×m PD.
func SolveDARE(a, b, q, r *Mat, maxIter int, tol float64) (*Mat, error) {
	n := a.Rows
	if a.Cols != n || b.Rows != n || q.Rows != n || q.Cols != n ||
		r.Rows != b.Cols || r.Cols != b.Cols {
		return nil, ErrDimensionMismatch
	}
	nu := b.Cols
	at := a.T()
	bt := b.T()
	p := q.Clone()
	// The fixed-point loop runs thousands of iterations; every product is
	// written into a preallocated workspace so the whole solve performs a
	// constant number of allocations. Bᵀ·P and Aᵀ·P are each computed once
	// per iteration and reused — the reused product is bit-identical to
	// recomputing it, and every kernel below preserves the accumulation
	// order of the allocating expression it replaced.
	next := New(n, n)
	btp := New(nu, n)   // Bᵀ P
	btpb := New(nu, nu) // Bᵀ P B
	s := New(nu, nu)    // R + Bᵀ P B
	btpa := New(nu, n)  // Bᵀ P A
	m := New(nu, n)     // S⁻¹ Bᵀ P A
	atp := New(n, n)    // Aᵀ P
	atpa := New(n, n)   // Aᵀ P A, then the full un-symmetrized update
	atpb := New(n, nu)  // Aᵀ P B
	atpbm := New(n, n)  // Aᵀ P B M
	lu := NewLU(nu)
	for iter := 0; iter < maxIter; iter++ {
		// S = R + Bᵀ P B
		MulInto(btp, bt, p)
		MulInto(btpb, btp, b)
		AddInto(s, r, btpb)
		// M = S⁻¹ Bᵀ P A
		MulInto(btpa, btp, a)
		if err := lu.Refactor(s); err != nil {
			return nil, fmt.Errorf("riccati step %d: %w", iter, err)
		}
		if err := lu.SolveInto(m, btpa); err != nil {
			return nil, fmt.Errorf("riccati step %d: %w", iter, err)
		}
		// next = sym(Aᵀ P A − Aᵀ P B M + Q)
		MulInto(atp, at, p)
		MulInto(atpa, atp, a)
		MulInto(atpb, atp, b)
		MulInto(atpbm, atpb, m)
		SubInto(atpa, atpa, atpbm)
		AddInto(atpa, atpa, q)
		SymmetrizeInto(next, atpa)
		d := next.MaxAbsDiff(p)
		if math.IsNaN(d) {
			// An unstabilizable system overflows and a NaN input spreads;
			// either way no later iterate can converge.
			return nil, fmt.Errorf("riccati step %d: non-finite iterate: %w", iter, ErrNoConvergence)
		}
		if d < tol {
			return next, nil
		}
		p, next = next, p
	}
	return nil, ErrNoConvergence
}

// LQRGain returns the infinite-horizon discrete LQR state-feedback gain
//
//	K = (R + Bᵀ·P·B)⁻¹ · Bᵀ·P·A
//
// so that u = −K·(x − x_ref) stabilizes x(t+1) = A·x + B·u.
func LQRGain(a, b, q, r *Mat) (*Mat, error) {
	p, err := SolveDARE(a, b, q, r, 10000, 1e-9)
	if err != nil {
		return nil, fmt.Errorf("lqr gain: %w", err)
	}
	bt := b.T()
	s := r.Add(bt.Mul(p).Mul(b))
	k, err := SolveMat(s, bt.Mul(p).Mul(a))
	if err != nil {
		return nil, fmt.Errorf("lqr gain solve: %w", err)
	}
	return k, nil
}
