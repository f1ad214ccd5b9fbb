// Package mat provides the small dense linear algebra the rest of the
// repository needs off the control tick: vectors, matrices, an LU
// factorization, and a discrete algebraic Riccati solver for LQR gain
// synthesis. It serves the set-up time Riccati solves, system
// identification's least squares, and the allocating reference
// implementations the EKF and recovery tests compare their fixed-size
// kernels against.
//
// The package is deliberately minimal, with no external dependencies.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when operand shapes are incompatible.
var ErrDimensionMismatch = errors.New("mat: dimension mismatch")

// Vec is a dense column vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec {
	return make(Vec, n)
}

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Vec.Add length %d != %d", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec {
	if len(v) != len(w) {
		panic(fmt.Sprintf("mat: Vec.Sub length %d != %d", len(v), len(w)))
	}
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns s * v.
func (v Vec) Scale(s float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = s * v[i]
	}
	return out
}

// IsFinite reports whether every entry of v is finite (no NaN or Inf).
func (v Vec) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
