package ekf

import (
	"fmt"
	"math"

	"repro/internal/floats"
	"repro/internal/mat"
)

// The private covariance recursion runs on every tick of a filter that has
// left the shared schedule (a masked sensor, a model-only Predict), so its
// two kernels are hot. Both matrices they multiply by are structural:
//
//   - F = I + h·E, where E couples position to velocity and angle to rate
//     (rows 0–2 and 6–8 of F carry h in the column three to the right);
//   - H selects one state per observation row (a 0/1 row selection; GPS z
//     and the barometer observe the same state).
//
// So the kernels below are straight-line code over the 12×12 covariance
// instead of generic mat products. They return the same bits as the
// mat.MulInto/AddInto/TransposeInto/SymmetrizeInto and LU.Refactor/
// SolveInto chain they replaced:
//
//   - Each element accumulates the same nonzero terms in the same order and
//     the same `acc + x*y` shape as MulInto, starting from +0, so a target
//     that fuses x*y + z (arm64) fuses the same multiply-adds. A term with
//     a structural factor of 1 is its other factor (0 + p, never bare p, so
//     a −0 input still becomes +0 as the generic accumulator makes it).
//   - A dropped term has a structural factor of exactly 0. For a finite
//     operand it adds ±0 to an accumulator that started at +0, which
//     leaves its bits unchanged: no accumulator is ever −0.
//   - R's entries are stored products in the generic path, so the noise²
//     goes through a float64 conversion before it is added.
//   - The m×m factor and the solves copy LU.Refactor and SolveVecInto:
//     strict-> pivot, 1e-14 singular test, and each element's sequence of
//     subtractions and its final division, in order.
//
// Precondition: P is finite. A non-finite P still gives a non-finite
// posterior, but not the generic path's bits: there a structural zero
// times an infinity adds a NaN term that a dropped term does not. P is a
// function of the profile, dt and the active-set history only — never of a
// measurement — and no external input sets dt.
//
// TestKernelsMatchAllocatingReference checks both kernels bit for bit
// against the allocating reference in equiv_test.go.

// coupled reports whether row (or column) i of F carries h: the position
// and angle rows.
func coupled(i int) bool { return i < 3 || (i >= 6 && i < 9) }

// propagateCovariance advances P ← sym(F·P·Fᵀ + Q·dt), where
// F = I + h·(pos ← vel, angle ← rate) with h = dt is the kinematic
// transition Jacobian. Because the prediction is strapdown (measurement
// driven), attitude errors do not couple into velocity through the
// dynamics model; the only structural couplings are position ← velocity
// and angle ← rate. Using the full model Jacobian here would let GPS
// innovations leak into the attitude estimate through spurious
// cross-covariances.
func (f *Filter) propagateCovariance() {
	ws := &f.ws
	h := f.dt
	p := &f.p
	var a [nx]float64
	for i := range nx {
		// Row i of F·P: a coupled row adds h times the row three below.
		pi := &p[i]
		if coupled(i) {
			pd := &p[i+3]
			for j := range nx {
				a[j] = (0 + pi[j]) + h*pd[j]
			}
		} else {
			for j := range nx {
				a[j] = 0 + pi[j]
			}
		}
		// Row i of F·P·Fᵀ + Q·dt: a coupled column adds h times the
		// column three to the right. Q is diagonal, and adding its +0
		// off-diagonal leaves a sum that is never −0 unchanged.
		b := &ws.prod[i]
		for j := range nx {
			if coupled(j) {
				b[j] = (0 + a[j]) + a[j+3]*h
			} else {
				b[j] = 0 + a[j]
			}
		}
		b[i] += f.qdt[i]
	}
	symmetrizeInto(p, &ws.prod)
}

// covGain runs the measurement-independent half of the correction for the
// row set: it forms S = H·P·Hᵀ + R, derives the innovation gate
// half-widths into ws.gates, solves for the Kalman gain K = P·Hᵀ·S⁻¹ into
// ws.kt as Kᵀ, and advances P ← sym((I − K·H)·P). The leading len(rows)
// entries of ws.kt and ws.gates stay valid until the next covGain call.
func (f *Filter) covGain(rows []obsChannel) error {
	ws := &f.ws
	m := len(rows)
	p := &f.p

	// Sᵀ, gathered: S_rc = (0 + P[s_r][s_c]) + R_rc with R diagonal.
	//
	// Innovation gates: ±gateSigma·√S_ii, the standard EKF defense against
	// implausible jumps. A deception bias larger than the gate is admitted
	// gradually (a few gates per correction cycle) rather than
	// instantaneously — which bounds how far a single corrupted correction
	// can drag the estimate while still letting persistent spoofing take
	// effect, as observed on real autopilot stacks.
	const gateSigma = 5.0
	lu := &ws.lu
	gates := &ws.gates
	for r, chr := range rows {
		lr := &lu[r]
		for c, chc := range rows {
			lr[c] = 0 + p[chc.state][chr.state]
		}
		lr[r] += float64(chr.noise * chr.noise)
		gates[r] = gateSigma * math.Sqrt(lr[r])
	}

	// Sᵀ = Π·L·U with partial pivoting, in place.
	var piv [nobs]int
	for i := range m {
		piv[i] = i
	}
	for k := range m {
		pr, amax := k, math.Abs(lu[k][k])
		for i := k + 1; i < m; i++ {
			if v := math.Abs(lu[i][k]); v > amax {
				pr, amax = i, v
			}
		}
		if amax < 1e-14 {
			return fmt.Errorf("ekf correct: %w", mat.ErrSingular)
		}
		if pr != k {
			lu[pr], lu[k] = lu[k], lu[pr]
			piv[pr], piv[k] = piv[k], piv[pr]
		}
		lk := &lu[k]
		for i := k + 1; i < m; i++ {
			li := &lu[i]
			l := li[k] / lk[k]
			li[k] = l
			for j := k + 1; j < m; j++ {
				li[j] -= l * lk[j]
			}
		}
	}

	// Sᵀ·Kᵀ = (P·Hᵀ)ᵀ: row j of K solves against (0 + P[j][s_c])_c. All
	// twelve right-hand sides go through each substitution step together.
	kt := &ws.kt
	for i := range m {
		s := rows[piv[i]].state
		ki := &kt[i]
		for j := range nx {
			ki[j] = 0 + p[j][s]
		}
	}
	for i := 1; i < m; i++ {
		ki := &kt[i]
		for j := range i {
			l, kj := lu[i][j], &kt[j]
			for c := range nx {
				ki[c] -= l * kj[c]
			}
		}
	}
	for i := m - 1; i >= 0; i-- {
		ki := &kt[i]
		for j := i + 1; j < m; j++ {
			u, kj := lu[i][j], &kt[j]
			for c := range nx {
				ki[c] -= u * kj[c]
			}
		}
		d := lu[i][i]
		for c := range nx {
			ki[c] /= d
		}
	}

	// P ← sym((I − K·H)·P). Row i of K·H adds K[i][r] into column s_r, in
	// row order; the product keeps MulInto's k order and its zero skip.
	// The update reads only K and the prior P, neither of which the state
	// half touches, so running it before the state update is bit-exact.
	for i := range nx {
		var c [nx]float64
		for r, ch := range rows {
			c[ch.state] += kt[r][i]
		}
		ci := c[i]
		for j := range nx {
			c[j] = 0 - c[j]
		}
		c[i] = 1 - ci
		acc := &ws.prod[i]
		*acc = [nx]float64{}
		for k := range nx {
			v := c[k]
			if floats.Zero(v) {
				continue
			}
			pk := &p[k]
			for j := range nx {
				acc[j] += v * pk[j]
			}
		}
	}
	symmetrizeInto(p, &ws.prod)
	return nil
}

// symmetrizeInto writes (a + aᵀ)/2 into p.
func symmetrizeInto(p, a *[nx][nx]float64) {
	for i := range nx {
		pi := &p[i]
		for j := range nx {
			pi[j] = 0.5 * (a[i][j] + a[j][i])
		}
	}
}
