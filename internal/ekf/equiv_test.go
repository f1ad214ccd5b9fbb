package ekf

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// This file pins the filter's correctness contract: the zero-allocation
// Predict/Correct cycle, with its straight-line covariance kernels, must
// produce bit-identical states and covariances to the allocating formulas
// it replaced. The reference implementations below are verbatim
// transcriptions of the pre-workspace code, built on the allocating mat
// API.

// kinematicJacobian builds the constant position←velocity (and
// angle←rate) transition Jacobian for covariance propagation at period dt.
func kinematicJacobian(dt float64) *mat.Mat {
	f := mat.Identity(nx)
	for i := 0; i < 3; i++ {
		f.Set(i, 3+i, dt)   // pos ← vel
		f.Set(6+i, 9+i, dt) // angle ← rate
	}
	return f
}

// refQ returns the filter's process noise as a matrix.
func refQ() *mat.Mat {
	q := defaultProcessNoise()
	return mat.Diag(q[:])
}

// refPropagate is the allocating covariance propagation:
// P ← sym(F·P·Fᵀ + Q·dt).
func refPropagate(p, q, fkin *mat.Mat, dt float64) *mat.Mat {
	return fkin.Mul(p).Mul(fkin.T()).Add(q.Scale(dt)).Symmetrize()
}

// refCorrection is the allocating correction's output: the posterior
// covariance and state, and the gain and innovation gates it applied (nil
// when no row is active).
type refCorrection struct {
	p     *mat.Mat
	x     vehicle.State
	k     *mat.Mat
	gates []float64
}

// refCorrect is the allocating correction step, operating on an external
// (p, x) pair with the filter's observation channels.
func refCorrect(f *Filter, p *mat.Mat, x vehicle.State, meas sensors.PhysState, active sensors.TypeSet) (refCorrection, error) {
	var rows []obsChannel
	var z []float64
	for _, ch := range f.obs {
		if !active.Has(ch.sensor) {
			continue
		}
		if ch.sensor == sensors.Gyro && !f.isQuad {
			continue
		}
		rows = append(rows, ch)
		if ch.sensor == sensors.Mag {
			z = append(z, MagYaw(&meas))
		} else {
			z = append(z, measChannel(&meas, &ch))
		}
	}
	if len(rows) == 0 {
		return refCorrection{p: p, x: x}, nil
	}
	m := len(rows)
	h := mat.New(m, nx)
	rdiag := make([]float64, m)
	for i, ch := range rows {
		h.Set(i, ch.state, 1)
		rdiag[i] = ch.noise * ch.noise
	}
	xvec := mat.Vec(x.Vec())
	innov := mat.NewVec(m)
	for i, ch := range rows {
		d := z[i] - xvec[ch.state]
		if ch.state >= 6 && ch.state <= 8 {
			d = vehicle.WrapAngle(d)
		}
		innov[i] = d
	}
	ph := p.Mul(h.T())
	s := h.Mul(ph).Add(mat.Diag(rdiag))
	const gateSigma = 5.0
	gates := make([]float64, m)
	for i := range innov {
		gate := gateSigma * math.Sqrt(s.At(i, i))
		innov[i] = vehicle.Clamp(innov[i], -gate, gate)
		gates[i] = gate
	}
	kt, err := mat.SolveMat(s.T(), ph.T())
	if err != nil {
		return refCorrection{}, err
	}
	k := kt.T()
	dx := k.MulVec(innov)
	xvec = xvec.Add(dx)
	out := vehicle.StateFromVec(xvec)
	out.Roll = vehicle.WrapAngle(out.Roll)
	out.Pitch = vehicle.WrapAngle(out.Pitch)
	out.Yaw = vehicle.WrapAngle(out.Yaw)
	pOut := mat.Identity(nx).Sub(k.Mul(h)).Mul(p).Symmetrize()
	return refCorrection{p: pOut, x: out, k: k, gates: gates}, nil
}

// bitsEqualMat asserts element-wise bit identity.
func bitsEqualMat(t *testing.T, step int, what string, got, want *mat.Mat) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("step %d: %s diverges at element %d: %g != %g",
				step, what, i, got.Data[i], want.Data[i])
		}
	}
}

// covariance returns the filter's covariance as a 12×12 matrix: its
// carried pairs, and +0 everywhere else. A filter on the shared schedule
// detaches first: the schedule carries its covariance.
func covariance(f *Filter) *mat.Mat {
	if f.onShared() {
		f.detachShared()
	}
	m := mat.New(nx, nx)
	for k := range f.np {
		s := pairState[k]
		for i := range 2 {
			for j := range 2 {
				m.Set(s+3*i, s+3*j, f.p[k][i][j])
			}
		}
	}
	return m
}

// setCovariance overwrites the filter's carried pairs with their entries
// of m (12×12).
func setCovariance(f *Filter, m *mat.Mat) {
	for k := range f.np {
		s := pairState[k]
		for i := range 2 {
			for j := range 2 {
				f.p[k][i][j] = m.At(s+3*i, s+3*j)
			}
		}
	}
}

// inPair reports whether states i and j lie in one (state, rate) pair.
func inPair(i, j int) bool { return statePair[i] == statePair[j] }

// bitsEqualCarried asserts bit identity of the filter's covariance with
// want on the pairs the filter carries.
func bitsEqualCarried(t *testing.T, step int, what string, f *Filter, want *mat.Mat) {
	t.Helper()
	got := covariance(f)
	for i := range nx {
		for j := range nx {
			if !inPair(i, j) || statePair[i] >= f.np {
				continue
			}
			if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("step %d: %s diverges at (%d, %d): %g != %g", step, what, i, j, g, w)
			}
		}
	}
}

// bitsEqualGain asserts that the Kᵀ the filter's last private correction
// solved for matches the reference gain want (nx×m): bit for bit in each
// row's pair, and equal to it, both zero, outside, where the reference may
// hold −0 and the filter holds +0.
func bitsEqualGain(t *testing.T, step int, f *Filter, want *mat.Mat) {
	t.Helper()
	for c := range want.Cols {
		s := f.ws.rows[c].state
		for j := range nx {
			g, w := f.ws.kt[c][j], want.At(j, c)
			if inPair(j, s) && math.Float64bits(g) != math.Float64bits(w) ||
				!inPair(j, s) && !(g == 0 && w == 0) {
				t.Fatalf("step %d: gain diverges at (%d, %d): %g != %g", step, j, c, g, w)
			}
		}
	}
}

// bitsEqualState asserts bit identity of two states.
func bitsEqualState(t *testing.T, step int, got, want vehicle.State) {
	t.Helper()
	gv, wv := got.Vec(), want.Vec()
	for i := range wv {
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
			t.Fatalf("step %d: state diverges at component %d: %g != %g",
				step, i, gv[i], wv[i])
		}
	}
}

// TestWorkspaceMatchesAllocatingReference drives the filter through a
// deterministic Predict/Correct sequence — including masked-sensor phases
// that reshape the Correct workspace to a smaller row count — and checks
// state and covariance stay bit-identical to the allocating reference
// after every step: on the rover, the covariance on the pairs it carries.
func TestWorkspaceMatchesAllocatingReference(t *testing.T) {
	profiles := []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover}
	for _, id := range profiles {
		prof := vehicle.MustProfile(id)
		t.Run(string(prof.Name), func(t *testing.T) {
			const dt = 0.01
			f := New(prof, dt)
			start := vehicle.State{Z: 10}
			f.Init(start)

			refP := mat.Identity(nx).Scale(0.1)
			refX := start
			fkin := kinematicJacobian(dt)

			all := sensors.NewTypeSet(sensors.AllTypes()...)
			masked := all
			masked.Remove(sensors.GPS)

			rng := rand.New(rand.NewSource(7))
			u := vehicle.Input{Thrust: 9.0}
			for i := 0; i < 200; i++ {
				// A wandering truth state drives non-trivial innovations.
				truth := vehicle.State{
					X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: 10 + rng.NormFloat64(),
					VX: rng.NormFloat64(), VY: rng.NormFloat64(), VZ: rng.NormFloat64(),
					Yaw: rng.NormFloat64() * 0.3,
				}
				meas := sensors.TruePhysState(truth, [3]float64{}, sensors.BodyField(truth.Yaw))

				f.Predict(u)
				refP = refPropagate(refP, refQ(), fkin, dt)
				f.step(&refX, &refX, u, dt)
				bitsEqualCarried(t, i, "covariance after Predict", f, refP)
				bitsEqualState(t, i, f.x, refX)

				// Mask GPS for a stretch: the workspace reshapes to fewer
				// observation rows and must still match.
				active := all
				if i >= 80 && i < 120 {
					active = masked
				}
				if err := f.Correct(&meas, active); err != nil {
					t.Fatalf("step %d: Correct: %v", i, err)
				}
				ref, err := refCorrect(f, refP, refX, meas, active)
				if err != nil {
					t.Fatalf("step %d: refCorrect: %v", i, err)
				}
				refP, refX = ref.p, ref.x
				bitsEqualCarried(t, i, "covariance after Correct", f, refP)
				bitsEqualState(t, i, f.x, refX)
			}
		})
	}
}

// randomPrior draws a pair-diagonal covariance, the only form the filter
// can reach (TestCovariancePairStructure): each (state, rate) pair is a
// positive definite 2×2 block whose states' scales span eight decades (so
// its entries span sixteen), and its off-diagonal entry is sometimes an
// exact zero of either sign or a subnormal. Every entry outside a pair is
// +0.
func randomPrior(rng *rand.Rand) *mat.Mat {
	var d [nx]float64
	for i := range d {
		d[i] = math.Pow(10, -4+8*rng.Float64())
	}
	p := mat.New(nx, nx)
	for _, s := range pairState {
		var g [2][nx]float64
		for a := range g {
			for j := range g[a] {
				g[a][j] = rng.NormFloat64()
			}
		}
		states := [2]int{s, s + 3}
		for a := range 2 {
			for b := 0; b <= a; b++ {
				var c float64
				for j := range nx {
					c += g[a][j] * g[b][j]
				}
				i, j := states[a], states[b]
				v := d[i] * c * d[j]
				if a != b {
					switch u := rng.Float64(); {
					case u < 0.08:
						v = 0
					case u < 0.12:
						v = math.Copysign(0, -1)
					case u < 0.16:
						v = math.Copysign(math.Float64frombits(1+uint64(rng.Int63n(1<<52-1))), rng.NormFloat64())
					}
				}
				p.Set(i, j, v)
				p.Set(j, i, v)
			}
		}
	}
	return p
}

// randomCase draws a filter state and a measurement for one kernel case.
func randomCase(rng *rand.Rand) (vehicle.State, sensors.PhysState) {
	xv := make([]float64, nx)
	for i := range xv {
		xv[i] = rng.NormFloat64() * 3
	}
	var meas sensors.PhysState
	for i := range meas {
		meas[i] = xv[i%nx] + rng.NormFloat64()*2
	}
	return vehicle.StateFromVec(xv), meas
}

// typeSubset returns the subset of the sensor types selected by the low
// five bits of bits.
func typeSubset(bits int) sensors.TypeSet {
	set := sensors.NewTypeSet()
	for i, typ := range sensors.AllTypes() {
		if bits&(1<<i) != 0 {
			set.Add(typ)
		}
	}
	return set
}

// lastUniqueRow returns the last of the active rows whose state no other
// active row observes, and false if no row is active.
func lastUniqueRow(f *Filter, meas *sensors.PhysState, active sensors.TypeSet) (obsChannel, bool) {
	rows, _ := f.selectRows(meas, active)
	for i := len(rows) - 1; i >= 0; i-- {
		n := 0
		for _, ch := range rows {
			if ch.state == rows[i].state {
				n++
			}
		}
		if n == 1 {
			return rows[i], true
		}
	}
	return obsChannel{}, false
}

// TestKernelsMatchAllocatingReference checks the pair kernels
// (propagateCovariance and covGain, through Correct) bit for bit against
// the allocating reference on random pair-diagonal priors: all six
// profiles, all 32 subsets of the five sensor types, one filter for each
// of dt ∈ {0.005, 0.01, 0.02, 0.05} and one non-round period, two
// propagations in a row, asymmetric priors, and priors that make S
// singular, where both paths must fail and the filter's P must stay as
// it was. It compares P on the carried pairs, the state, the gates and K,
// whose zeros outside a row's pair it compares by value (bitsEqualGain).
func TestKernelsMatchAllocatingReference(t *testing.T) {
	perProfile := 10000
	if testing.Short() {
		perProfile = 640
	}
	dts := []float64{0.005, 0.01, 0.02, 0.05, 0.0173}
	q := refQ()
	for pi, prof := range vehicle.Profiles() {
		t.Run(string(prof.Name), func(t *testing.T) {
			filters := make([]*Filter, len(dts))
			for i, dt := range dts {
				filters[i] = New(prof, dt)
			}
			rng := rand.New(rand.NewSource(int64(1000 + pi)))
			singular, failed := 0, 0
			for n := 0; n < perProfile; n++ {
				dt := dts[n%len(dts)]
				f := filters[n%len(dts)]
				active := typeSubset(n / len(dts))
				prior := randomPrior(rng)
				x, meas := randomCase(rng)

				f.Init(x)
				setCovariance(f, prior)
				fkin := kinematicJacobian(dt)
				f.propagateCovariance()
				want := refPropagate(prior, q, fkin, dt)
				if n%3 == 2 {
					f.propagateCovariance()
					want = refPropagate(want, q, fkin, dt)
				}
				bitsEqualCarried(t, n, "covariance after propagation", f, want)
				if n%7 == 6 {
					// Correct a fresh prior instead: covGain must not rely
					// on the propagation's exact symmetry or on its turning
					// −0 into +0. Perturb the upper triangle.
					want = randomPrior(rng)
					for i := range nx {
						for j := i + 1; j < nx; j++ {
							want.Set(i, j, want.At(i, j)*(1+1e-3*rng.NormFloat64()))
						}
					}
					setCovariance(f, want)
				}
				if n%50 == 49 {
					// Zero the row and column of the last state that one
					// row alone observes, and cancel its noise: S gets an
					// exactly zero column. That state's pair is mostly the
					// last pair with rows, so the pairs before it have
					// solved their gains when its factor fails, and P must
					// still be untouched.
					if row, ok := lastUniqueRow(f, &meas, active); ok {
						s, r := row.state, row.noise
						for k := range nx {
							want.Set(s, k, 0)
							want.Set(k, s, 0)
						}
						want.Set(s, s, -float64(r*r))
						setCovariance(f, want)
						singular++
					}
				}

				err := f.Correct(&meas, active)
				ref, wantErr := refCorrect(f, want, x, meas, active)
				if errors.Is(err, mat.ErrSingular) != errors.Is(wantErr, mat.ErrSingular) ||
					(err == nil) != (wantErr == nil) {
					t.Fatalf("case %d (dt %v, active %v): Correct error %v, reference %v",
						n, dt, active, err, wantErr)
				}
				if err != nil {
					failed++
					bitsEqualCarried(t, n, "covariance after a failed Correct", f, want)
					continue
				}
				bitsEqualCarried(t, n, "covariance after Correct", f, ref.p)
				bitsEqualState(t, n, f.x, ref.x)
				if ref.k != nil {
					bitsEqualGain(t, n, f, ref.k)
					gates := &mat.Mat{Rows: 1, Cols: len(ref.gates), Data: f.ws.gates[:len(ref.gates)]}
					bitsEqualMat(t, n, "gates", gates, &mat.Mat{Rows: 1, Cols: len(ref.gates), Data: ref.gates})
				}
			}
			if failed != singular {
				t.Errorf("%d corrections failed, want the %d with a singular S", failed, singular)
			}
		})
	}
}

// TestKernelsNonFinitePrior pins the kernels' precondition: they are
// bit-exact for a finite covariance only, but a prior with a non-finite
// entry in a carried pair still never comes out finite. (Its bits may
// differ from the generic path's, which adds Inf·0 = NaN terms the
// kernels drop.)
func TestKernelsNonFinitePrior(t *testing.T) {
	all := sensors.NewTypeSet(sensors.AllTypes()...)
	for _, id := range []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover} {
		f := New(vehicle.MustProfile(id), 0.01)
		rng := rand.New(rand.NewSource(5))
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for k := range f.np {
				s := pairState[k]
				for _, e := range [][2]int{{s, s}, {s + 3, s}, {s + 3, s + 3}} {
					i, j := e[0], e[1]
					prior := randomPrior(rng)
					prior.Set(i, j, bad)
					prior.Set(j, i, bad)
					x, meas := randomCase(rng)

					f.Init(x)
					setCovariance(f, prior)
					f.propagateCovariance()
					if covariance(f).IsFinite() {
						t.Fatalf("%s: P[%d][%d] = %v: propagation returned a finite covariance", id, i, j, bad)
					}

					f.Init(x)
					setCovariance(f, prior)
					if err := f.Correct(&meas, all); err == nil && covariance(f).IsFinite() {
						t.Fatalf("%s: P[%d][%d] = %v: Correct returned a finite covariance", id, i, j, bad)
					}
				}
			}
		}
	}
}

// TestCovariancePairStructure licenses the pair form of the covariance
// (covariance.go) on the allocating 12×12 reference, run from Init's
// 0.1·I: every entry outside the six (state, rate) pairs stays exactly +0,
// never −0, and on a rover, which drops its roll and pitch pairs, the φ,
// θ, ωφ and ωθ rows of K stay exactly 0. It covers all six profiles, a
// recursion at each of dt ∈ {0.005, 0.01, 0.02, 0.05, 0.0173}, the active
// set redrawn among the 32 subsets of the sensor types, and model-only
// predictions mixed in.
func TestCovariancePairStructure(t *testing.T) {
	cycles := 3000
	if testing.Short() {
		cycles = 300
	}
	dts := []float64{0.005, 0.01, 0.02, 0.05, 0.0173}
	q := refQ()
	var x vehicle.State
	var meas sensors.PhysState
	for pi, prof := range vehicle.Profiles() {
		t.Run(string(prof.Name), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000 + pi)))
			for _, dt := range dts {
				f := New(prof, dt)
				fkin := kinematicJacobian(dt)
				p := mat.Identity(nx).Scale(0.1)
				active := sensors.All
				for n := 0; n < cycles; n++ {
					if rng.Intn(16) == 0 {
						active = typeSubset(rng.Intn(32))
					}
					p = refPropagate(p, q, fkin, dt)
					if rng.Intn(8) != 0 {
						ref, err := refCorrect(f, p, x, meas, active)
						if err != nil {
							t.Fatalf("dt %v, cycle %d: refCorrect: %v", dt, n, err)
						}
						p = ref.p
						if !f.isQuad && ref.k != nil {
							for _, j := range []int{6, 7, 9, 10} {
								for c := range ref.k.Cols {
									if v := ref.k.At(j, c); v != 0 {
										t.Fatalf("dt %v, cycle %d (active %v): K[%d][%d] = %g, want 0", dt, n, active, j, c, v)
									}
								}
							}
						}
					}
					for i := range nx {
						for j := range nx {
							if v := p.At(i, j); !inPair(i, j) && math.Float64bits(v) != 0 {
								t.Fatalf("dt %v, cycle %d (active %v): P[%d][%d] = %g, want +0", dt, n, active, i, j, v)
							}
						}
					}
				}
			}
		})
	}
}
