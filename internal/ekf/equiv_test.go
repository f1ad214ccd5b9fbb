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

// covariance returns the filter's covariance as a matrix. A filter on the
// shared schedule detaches first: the schedule carries its covariance.
func covariance(f *Filter) *mat.Mat {
	if f.onShared() {
		f.detachShared()
	}
	m := mat.New(nx, nx)
	for i := range nx {
		copy(m.Data[i*nx:(i+1)*nx], f.p[i][:])
	}
	return m
}

// setCovariance overwrites the filter's covariance with m (12×12).
func setCovariance(f *Filter, m *mat.Mat) {
	for i := range nx {
		copy(f.p[i][:], m.Data[i*nx:(i+1)*nx])
	}
}

// gain returns the nx×m Kalman gain the filter's last private correction
// solved for, from the Kᵀ it keeps.
func gain(f *Filter, m int) *mat.Mat {
	k := mat.New(nx, m)
	for c := range m {
		for j := range nx {
			k.Set(j, c, f.ws.kt[c][j])
		}
	}
	return k
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
// after every step.
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
				bitsEqualMat(t, i, "covariance after Predict", covariance(f), refP)
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
				bitsEqualMat(t, i, "covariance after Correct", covariance(f), refP)
				bitsEqualState(t, i, f.x, refX)
			}
		})
	}
}

// randomPrior draws a symmetric covariance whose states' scales span eight
// decades (so its entries span sixteen), with exact zeros of both signs
// and subnormal entries in symmetric pairs. Without the zeroed and
// subnormal pairs it is positive definite.
func randomPrior(rng *rand.Rand) *mat.Mat {
	g := mat.New(nx, nx)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	c := g.Mul(g.T())
	var d [nx]float64
	for i := range d {
		d[i] = math.Pow(10, -4+8*rng.Float64())
	}
	p := mat.New(nx, nx)
	for i := range nx {
		for j := 0; j <= i; j++ {
			v := d[i] * c.At(i, j) * d[j]
			if i != j {
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

// TestKernelsMatchAllocatingReference checks the straight-line covariance
// kernels (propagateCovariance and covGain, through Correct) bit for bit
// against the allocating reference on random priors: all six profiles,
// all 32 subsets of the five sensor types, one filter for each of
// dt ∈ {0.005, 0.01, 0.02, 0.05} and one non-round period, two
// propagations in a row, asymmetric priors, and priors that make S
// singular, where both paths must fail.
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
				bitsEqualMat(t, n, "covariance after propagation", covariance(f), want)
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
					// Zero the first observed state's row and column and
					// cancel its noise: S gets an exactly zero column.
					if rows, _ := f.selectRows(&meas, active); len(rows) > 0 {
						s, r := rows[0].state, rows[0].noise
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
					continue
				}
				bitsEqualMat(t, n, "covariance after Correct", covariance(f), ref.p)
				bitsEqualState(t, n, f.x, ref.x)
				if ref.k != nil {
					bitsEqualMat(t, n, "gain", gain(f, ref.k.Cols), ref.k)
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
// entry still never comes out finite. (Its bits may differ from the
// generic path's, which adds Inf·0 = NaN terms the kernels drop.)
func TestKernelsNonFinitePrior(t *testing.T) {
	all := sensors.NewTypeSet(sensors.AllTypes()...)
	for _, id := range []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover} {
		f := New(vehicle.MustProfile(id), 0.01)
		rng := rand.New(rand.NewSource(5))
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for i := range nx {
				for j := 0; j <= i; j++ {
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
