package recovery

import (
	"math"

	"repro/internal/mat"
	"repro/internal/vehicle"
)

// The rover's LQR gain is re-synthesized on the recovery tick whenever its
// operating point drifts, so its Riccati solve is a hot path. The
// discretized kinematic bicycle has seven free entries,
//
//	    ⎡1 0 a02 a03⎤        ⎡ 0   0 ⎤
//	A = ⎢0 1 a12 a13⎥    B = ⎢ 0   0 ⎥
//	    ⎢0 0  1   0 ⎥        ⎢ 0  b21⎥
//	    ⎣0 0  0  a33⎦        ⎣b30  0 ⎦
//
// and every other entry is an exact 0 or 1, so the solve below runs
// mat.SolveDARE's fixed-point iteration and mat.LQRGain's gain step as
// straight-line code over stack arrays. It returns their gain bit for bit:
//
//   - Each element accumulates the same nonzero terms in the same order as
//     mat.MulInto, in its `acc += x*y` shape starting from +0, so a target
//     that fuses x*y + z (arm64) fuses the same multiply-adds. An
//     accumulator is never left as a bare product (a one-term sum is
//     written 0 + x*y), so a later add cannot absorb it into a fusion the
//     generic kernels, which store every product matrix, never make. For
//     the same reason a value the generic path stores before adding it
//     again (dt·A_c, each iterate) goes through a float64 conversion.
//   - A dropped term has an exact-zero factor, a structural 0 of A, B, Q
//     or R. For finite operands it adds ±0 to an accumulator that started
//     at +0, which leaves its bits unchanged; no accumulator is ever −0. A
//     term with a structural factor of 1 is its other factor.
//   - The 2×2 factor and solve are mat.LU.Refactor and SolveVecInto for
//     n = 2, strict-> pivot and 1e-14 singular test included.
//   - Every iterate is exactly symmetric, as SymmetrizeInto's are, so the
//     stopping rule reads the upper triangle only.
//
// TestRoverGainMatchesReference checks the result against the generic
// path bit for bit, and TestRoverIterateMatchesKernels checks one
// iterate, pivoting included, against the mat kernels.

// Cost weights of the rover LQR: Q over states [x y ψ v], R over inputs
// [a δ].
var (
	roverQ = [4]float64{2, 2, 4, 1}
	roverR = [2]float64{1, 2}
)

// Riccati stopping rule, as mat.LQRGain sets it.
const (
	roverMaxIter = 10000
	roverTol     = 1e-9
)

// roverSystem holds the free entries of the rover's A and B.
type roverSystem struct {
	a02, a03, a12, a13, a33 float64
	b21, b30                float64
}

// roverGain linearizes the kinematic bicycle about (yaw, v), solves the
// DARE for states [x y ψ v], inputs [a δ], and writes the LQR gain into k.
// On failure it returns mat.ErrNoConvergence or mat.ErrSingular
// unwrapped, so the refresh path allocates nothing, and leaves k as it was.
func roverGain(k *[2][4]float64, r vehicle.Rover, yaw, v float64, dt float64) error {
	if v < 0.5 {
		v = 0.5 // keep the steering channel controllable
	}
	wheelbase := r.LF + r.LR
	c, s := math.Cos(yaw), math.Sin(yaw)
	// A = I + dt·A_c and B = dt·B_c, element by element as
	// mat.Identity(4).Add(ac.Scale(dt)) and bc.Scale(dt) round them.
	sys := roverSystem{
		a02: 0 + float64(dt*(-v*s)), // ẋ = v cosψ
		a03: 0 + float64(dt*c),
		a12: 0 + float64(dt*(v*c)), // ẏ = v sinψ
		a13: 0 + float64(dt*s),
		a33: 1 + float64(dt*(-r.DragCoef)), // v̇ = a − drag·v
		b21: dt * (v / wheelbase),          // δ → ψ̇
		b30: dt,                            // a → v̇: dt·1
	}
	return sys.solve(k)
}

// solve iterates P ← sym(AᵀPA − AᵀPB·M + Q), M = (R + BᵀPB)⁻¹BᵀPA, from
// P₀ = Q until two iterates differ by less than roverTol, then writes
// K = M(P) for the converged P into k. It fails as mat.SolveDARE does:
// mat.ErrSingular when R + BᵀPB is singular, mat.ErrNoConvergence on a
// NaN difference or after roverMaxIter iterations; k is written only on
// success.
func (sys *roverSystem) solve(k *[2][4]float64) error {
	var p, next [4][4]float64
	for i, q := range roverQ {
		p[i][i] = q
	}
	var m [2][4]float64
	for iter := 0; iter < roverMaxIter; iter++ {
		if err := sys.feedback(&m, &p); err != nil {
			return err
		}
		d := sys.next(&next, &p, &m)
		if math.IsNaN(d) {
			return mat.ErrNoConvergence
		}
		if d < roverTol {
			return sys.feedback(k, &next)
		}
		p = next
	}
	return mat.ErrNoConvergence
}

// feedback writes M = S⁻¹·Bᵀ·P·A into m, where S = R + Bᵀ·P·B. It leaves m
// untouched when S is singular.
func (sys *roverSystem) feedback(m *[2][4]float64, p *[4][4]float64) error {
	// Bᵀ·P: the rows of Bᵀ are b30·e₃ᵀ and b21·e₂ᵀ.
	var btp [2][4]float64
	for j := range 4 {
		btp[0][j] = 0 + sys.b30*p[3][j]
		btp[1][j] = 0 + sys.b21*p[2][j]
	}
	// S = R + Bᵀ·P·B.
	s00 := roverR[0] + (0 + btp[0][3]*sys.b30)
	s01 := 0 + btp[0][2]*sys.b21
	s10 := 0 + btp[1][3]*sys.b30
	s11 := roverR[1] + (0 + btp[1][2]*sys.b21)
	// Bᵀ·P·A.
	var btpa [2][4]float64
	for i := range 2 {
		r := &btp[i]
		btpa[i] = [4]float64{
			r[0],
			r[1],
			0 + r[0]*sys.a02 + r[1]*sys.a12 + r[2],
			0 + r[0]*sys.a03 + r[1]*sys.a13 + r[3]*sys.a33,
		}
	}
	// S = L·U with partial pivoting.
	swap := false
	amax := math.Abs(s00)
	if v := math.Abs(s10); v > amax {
		amax, swap = v, true
	}
	if amax < 1e-14 {
		return mat.ErrSingular
	}
	u00, u01, l10, u11 := s00, s01, s10, s11
	if swap {
		u00, u01, l10, u11 = s10, s11, s00, s01
	}
	l10 /= u00
	u11 -= l10 * u01
	if math.Abs(u11) < 1e-14 {
		return mat.ErrSingular
	}
	// M = U⁻¹·L⁻¹·Π·(Bᵀ·P·A), column by column.
	for j := range 4 {
		x0, x1 := btpa[0][j], btpa[1][j]
		if swap {
			x0, x1 = x1, x0
		}
		x1 -= l10 * x0
		x1 /= u11
		x0 -= u01 * x1
		m[0][j], m[1][j] = x0/u00, x1
	}
	return nil
}

// next writes sym(Aᵀ·P·A − Aᵀ·P·B·M + Q) into dst and returns max|dst − p|,
// or NaN, leaving dst incomplete, as soon as one difference is NaN.
func (sys *roverSystem) next(dst, p *[4][4]float64, m *[2][4]float64) float64 {
	// Aᵀ·P: rows 0 and 1 of Aᵀ are e₀ᵀ and e₁ᵀ.
	var atp [4][4]float64
	atp[0], atp[1] = p[0], p[1]
	for j := range 4 {
		atp[2][j] = 0 + sys.a02*p[0][j] + sys.a12*p[1][j] + p[2][j]
		atp[3][j] = 0 + sys.a03*p[0][j] + sys.a13*p[1][j] + sys.a33*p[3][j]
	}
	// Row i of Aᵀ·P·A − (Aᵀ·P·B)·M + Q; columns 0 and 1 of A are e₀ and e₁.
	var x [4][4]float64
	for i := range 4 {
		r := &atp[i]
		atpb0 := 0 + r[3]*sys.b30
		atpb1 := 0 + r[2]*sys.b21
		x[i][0] = r[0] - (0 + atpb0*m[0][0] + atpb1*m[1][0])
		x[i][1] = r[1] - (0 + atpb0*m[0][1] + atpb1*m[1][1])
		x[i][2] = (0 + r[0]*sys.a02 + r[1]*sys.a12 + r[2]) - (0 + atpb0*m[0][2] + atpb1*m[1][2])
		x[i][3] = (0 + r[0]*sys.a03 + r[1]*sys.a13 + r[3]*sys.a33) - (0 + atpb0*m[0][3] + atpb1*m[1][3])
		x[i][i] += roverQ[i]
	}
	var d float64
	for i := range 4 {
		for j := i; j < 4; j++ {
			v := float64(0.5 * (x[i][j] + x[j][i]))
			dst[i][j], dst[j][i] = v, v
			a := math.Abs(v - p[i][j])
			if math.IsNaN(a) {
				return a
			}
			if a > d {
				d = a
			}
		}
	}
	return d
}
