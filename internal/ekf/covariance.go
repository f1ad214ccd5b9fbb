package ekf

import (
	"fmt"
	"math"

	"repro/internal/floats"
	"repro/internal/mat"
)

// The private covariance recursion runs on every tick of a filter that has
// left the shared schedule (a masked sensor, a model-only Predict) and on
// every record a state reconstruction replays, so its two kernels are hot.
// Every matrix they multiply by is structural:
//
//   - F = I + h·E, where E couples position to velocity and angle to rate
//     (state i to state i+3, for i in 0–2 and 6–8);
//   - Q·dt and Init's 0.1·I are diagonal;
//   - H selects one state per observation row: GPS 0–5, baro 2, mag 8, and
//     on quads only gyro 6 and 7.
//
// So F, Q, H, S, K and I − K·H never link two of the six (state, rate)
// pairs (x, vx), (y, vy), (z, vz), (ψ, ωψ), (φ, ωφ) and (θ, ωθ), and every
// entry of P outside a pair is exactly +0 from Init on. The filter stores P
// as the pairs' 2×2 blocks, and the kernels below run pair by pair: each
// pair has at most three observation rows, so its S needs at most a 3×3 LU.
// A rover has no roll or pitch row, so its (φ, ωφ) and (θ, ωθ) pairs feed
// no gain, gate or state; it carries only its four observed pairs, which
// come first.
//
// The kernels return the bits of the generic 12×12 path, the mat.MulInto/
// AddInto/TransposeInto/SymmetrizeInto and LU.Refactor/SolveInto chain
// that equiv_test.go transcribes as the allocating reference:
//
//   - Each in-pair element accumulates the same nonzero terms in the same
//     order and the same `acc + x*y` shape, starting from +0, so a target
//     that fuses x*y + z (arm64) fuses the same multiply-adds. A term with
//     a structural factor of 1 is its other factor (0 + p, never bare p,
//     so a −0 input still becomes +0 as the generic accumulator makes it).
//   - Every generic term outside a pair is a ±0 added to or subtracted
//     from an accumulator that is never −0, which leaves its bits
//     unchanged. The generic LU of S picks each pivot among its column's
//     pair rows, since every other row holds ±0 there, so it swaps rows
//     only within a pair and keeps each pair's rows in row order.
//   - R's entries are stored products in the generic path, so the noise²
//     goes through a float64 conversion before it is added.
//   - Each pair's factor and solves copy LU.Refactor and SolveVecInto:
//     strict-> pivot, 1e-14 singular test, and each element's sequence of
//     subtractions and its final division, in order.
//   - Kᵀ keeps all twelve columns, with +0 outside each row's pair, where
//     the generic solve may leave −0. applyGain sums each state's
//     products from +0, and +0 + (−0) is +0, so that sign reaches nothing;
//     a NaN innovation still reaches every state through 0·NaN.
//
// Precondition: P is finite. A non-finite P still gives a non-finite
// posterior, but not the generic path's bits: there a structural zero
// times an infinity adds a NaN term that a dropped term does not. P is a
// function of the profile, dt and the active-set history only — never of a
// measurement — and no external input sets dt.
//
// TestCovariancePairStructure checks on the allocating 12×12 reference in
// equiv_test.go that P stays pair-diagonal and that a rover's roll and
// pitch gains stay 0, and TestKernelsMatchAllocatingReference checks both
// kernels against that reference bit for bit.

// npair is the number of (state, rate) covariance pairs, and roverPairs
// the number a rover carries: its observed ones, which come first.
const (
	npair      = 6
	roverPairs = 4
)

// maxPairRows bounds one pair's observation rows: GPS z, GPS vz and the
// barometer on (z, vz).
const maxPairRows = 3

// pairState lists each pair's first state (position or angle); its rate
// is three states further on.
var pairState = [npair]int{0, 1, 2, 8, 6, 7}

// statePair maps a state to the pair that holds it.
var statePair = [nx]int{0, 1, 2, 0, 1, 2, 4, 5, 3, 4, 5, 3}

// stateSide returns state s's place in its pair: 0 for a position or an
// angle, 1 for its rate.
func stateSide(s int) int { return s / 3 % 2 }

// propagateCovariance advances P ← sym(F·P·Fᵀ + Q·dt), where
// F = I + h·(pos ← vel, angle ← rate) with h = dt is the kinematic
// transition Jacobian. Because the prediction is strapdown (measurement
// driven), attitude errors do not couple into velocity through the
// dynamics model; the only structural couplings are position ← velocity
// and angle ← rate. Using the full model Jacobian here would let GPS
// innovations leak into the attitude estimate through spurious
// cross-covariances.
func (f *Filter) propagateCovariance() {
	h := f.dt
	for k := range f.np {
		p, q := &f.p[k], &f.qdt[k]
		// F·P: the first row adds h times the second.
		a00 := (0 + p[0][0]) + h*p[1][0]
		a01 := (0 + p[0][1]) + h*p[1][1]
		a10 := 0 + p[1][0]
		a11 := 0 + p[1][1]
		// F·P·Fᵀ + Q·dt: the first column adds h times the second.
		b00 := (0 + a00) + a01*h
		b01 := 0 + a01
		b10 := (0 + a10) + a11*h
		b11 := 0 + a11
		b00 += q[0]
		b11 += q[1]
		p[0][0] = 0.5 * (b00 + b00)
		p[0][1] = 0.5 * (b01 + b10)
		p[1][0] = 0.5 * (b10 + b01)
		p[1][1] = 0.5 * (b11 + b11)
	}
}

// covGain runs the measurement-independent half of the correction for the
// row set: it forms S = H·P·Hᵀ + R, derives the innovation gate
// half-widths into ws.gates, solves for the Kalman gain K = P·Hᵀ·S⁻¹ into
// ws.kt as Kᵀ, and advances P ← sym((I − K·H)·P). The leading len(rows)
// entries of ws.kt and ws.gates stay valid until the next covGain call. A
// singular S leaves P untouched: no pair is updated until every pair's
// gain is solved.
func (f *Filter) covGain(rows []obsChannel) error {
	// Each pair's rows, in row order.
	var idx [npair][maxPairRows]int
	var n [npair]int
	for r := range rows {
		k := statePair[rows[r].state]
		idx[k][n[k]] = r
		n[k]++
	}
	for k := range f.np {
		if n[k] > 0 {
			if err := f.pairGain(k, rows, idx[k][:n[k]]); err != nil {
				return err
			}
		}
	}
	for k := range f.np {
		f.pairUpdate(k, rows, idx[k][:n[k]])
	}
	return nil
}

// pairGain solves pair k's share of the correction: the gates of its rows
// idx and their rows of Kᵀ, +0 outside the pair.
func (f *Filter) pairGain(k int, rows []obsChannel, idx []int) error {
	ws := &f.ws
	p := &f.p[k]
	m := len(idx)

	// Sᵀ, gathered: S_ab = (0 + P[s_a][s_b]) + R_ab with R diagonal.
	//
	// Innovation gates: ±gateSigma·√S_aa, the standard EKF defense against
	// implausible jumps. A deception bias larger than the gate is admitted
	// gradually (a few gates per correction cycle) rather than
	// instantaneously — which bounds how far a single corrupted correction
	// can drag the estimate while still letting persistent spoofing take
	// effect, as observed on real autopilot stacks.
	const gateSigma = 5.0
	lu := &ws.lu
	for a, ra := range idx {
		cha := &rows[ra]
		sa := stateSide(cha.state)
		la := &lu[a]
		for b, rb := range idx {
			la[b] = 0 + p[stateSide(rows[rb].state)][sa]
		}
		la[a] += float64(cha.noise * cha.noise)
		ws.gates[ra] = gateSigma * math.Sqrt(la[a])
	}

	// Sᵀ = Π·L·U with partial pivoting, in place.
	var piv [maxPairRows]int
	for i := range m {
		piv[i] = i
	}
	for c := range m {
		pr, amax := c, math.Abs(lu[c][c])
		for i := c + 1; i < m; i++ {
			if v := math.Abs(lu[i][c]); v > amax {
				pr, amax = i, v
			}
		}
		if amax < 1e-14 {
			return fmt.Errorf("ekf correct: %w", mat.ErrSingular)
		}
		if pr != c {
			lu[pr], lu[c] = lu[c], lu[pr]
			piv[pr], piv[c] = piv[c], piv[pr]
		}
		lc := &lu[c]
		for i := c + 1; i < m; i++ {
			li := &lu[i]
			l := li[c] / lc[c]
			li[c] = l
			for j := c + 1; j < m; j++ {
				li[j] -= l * lc[j]
			}
		}
	}

	// Sᵀ·Kᵀ = (P·Hᵀ)ᵀ: the pair's two columns of row a of Kᵀ solve
	// against (0 + P[·][s_a]), together through each substitution step.
	var kt [maxPairRows][2]float64
	for a := range m {
		s := stateSide(rows[idx[piv[a]]].state)
		kt[a] = [2]float64{0 + p[0][s], 0 + p[1][s]}
	}
	for i := 1; i < m; i++ {
		ki := &kt[i]
		for j := range i {
			l, kj := lu[i][j], &kt[j]
			ki[0] -= l * kj[0]
			ki[1] -= l * kj[1]
		}
	}
	for i := m - 1; i >= 0; i-- {
		ki := &kt[i]
		for j := i + 1; j < m; j++ {
			u, kj := lu[i][j], &kt[j]
			ki[0] -= u * kj[0]
			ki[1] -= u * kj[1]
		}
		d := lu[i][i]
		ki[0] /= d
		ki[1] /= d
	}
	s0 := pairState[k]
	for a, ra := range idx {
		row := &ws.kt[ra]
		*row = [nx]float64{}
		row[s0], row[s0+3] = kt[a][0], kt[a][1]
	}
	return nil
}

// pairUpdate advances pair k of P ← sym((I − K·H)·P) from the Kᵀ rows
// pairGain wrote for its rows idx; a pair with no row is symmetrized. Row
// i of K·H adds K[i][r] into column s_r, in row order; the product keeps
// MulInto's k order and its zero skip. The update reads only K and the
// prior P, neither of which the state half touches, so running it before
// the state update is bit-exact.
func (f *Filter) pairUpdate(k int, rows []obsChannel, idx []int) {
	p := &f.p[k]
	s0 := pairState[k]
	var acc [2][2]float64
	for i := range 2 {
		var c [2]float64
		for _, r := range idx {
			c[stateSide(rows[r].state)] += f.ws.kt[r][s0+3*i]
		}
		ci := c[i]
		c[0], c[1] = 0-c[0], 0-c[1]
		c[i] = 1 - ci
		ai := &acc[i]
		for j := range 2 {
			v := c[j]
			if floats.Zero(v) {
				continue
			}
			ai[0] += v * p[j][0]
			ai[1] += v * p[j][1]
		}
	}
	p[0][0] = 0.5 * (acc[0][0] + acc[0][0])
	p[0][1] = 0.5 * (acc[0][1] + acc[1][0])
	p[1][0] = 0.5 * (acc[1][0] + acc[0][1])
	p[1][1] = 0.5 * (acc[1][1] + acc[1][1])
}
