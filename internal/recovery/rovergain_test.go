package recovery

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/mission"
	"repro/internal/vehicle"
)

// roverDTs are the control periods the bit-exactness tests cover.
var roverDTs = []float64{0.005, 0.01, 0.02, 0.05}

// sameGain reports whether the straight-line gain k matches the reference
// bit for bit, naming the first entry that differs.
func sameGain(k, ref *mat.Mat) (bool, string) {
	for i, x := range k.Data {
		if math.Float64bits(x) != math.Float64bits(ref.Data[i]) {
			return false, fmt.Sprintf("K[%d][%d] = %v, reference %v", i/4, i%4, x, ref.Data[i])
		}
	}
	return true, ""
}

// TestRoverGainMatchesReference: the straight-line Riccati solve must
// return the generic mat.LQRGain's gain bit for bit, on both rover
// profiles at every control period, over random operating points (headings
// past ±2π, speeds up to twice the profile's limit) and the edge cases:
// the cardinal headings and the speeds around the 0.5 m/s clamp.
func TestRoverGainMatchesReference(t *testing.T) {
	perDT := 2500 // 10⁴ random operating points per profile
	if testing.Short() {
		perDT = 100
	}
	for _, name := range []vehicle.ProfileName{vehicle.AionR1, vehicle.ArduRover} {
		r := vehicle.MustProfile(name).Rover
		for _, dt := range roverDTs {
			t.Run(fmt.Sprintf("%s/dt=%v", name, dt), func(t *testing.T) {
				t.Parallel()
				type point struct{ yaw, v float64 }
				var pts []point
				for _, yaw := range []float64{0, math.Pi / 2, -math.Pi / 2, math.Pi, -math.Pi} {
					for _, v := range []float64{0, 0.3, 0.5, r.MaxSpeed} {
						pts = append(pts, point{yaw, v})
					}
				}
				rng := rand.New(rand.NewSource(int64(len(name)) + int64(1e3*dt)))
				for range perDT {
					pts = append(pts, point{
						yaw: 4 * math.Pi * (2*rng.Float64() - 1),
						v:   2 * r.MaxSpeed * rng.Float64(),
					})
				}
				k := mat.New(2, 4)
				for _, pt := range pts {
					ref, refErr := refRoverGain(r, pt.yaw, pt.v, dt)
					err := roverGain(k, r, pt.yaw, pt.v, dt)
					if refErr != nil || err != nil {
						t.Fatalf("ψ=%v v=%v: err %v, reference err %v", pt.yaw, pt.v, err, refErr)
					}
					if ok, diff := sameGain(k, ref); !ok {
						t.Fatalf("ψ=%v v=%v: %s", pt.yaw, pt.v, diff)
					}
				}
			})
		}
	}
}

// kernelIterate is one pass of mat.SolveDARE's loop body on the same mat
// kernels (the allocating methods wrap them): M = (R + BᵀPB)⁻¹BᵀPA and the
// next iterate sym(AᵀPA − AᵀPB·M + Q).
func kernelIterate(a, b, q, r, p *mat.Mat) (m, next *mat.Mat, err error) {
	at, bt := a.T(), b.T()
	btp := bt.Mul(p)
	lu, err := mat.FactorLU(r.Add(btp.Mul(b)))
	if err != nil {
		return nil, nil, err
	}
	if m, err = lu.Solve(btp.Mul(a)); err != nil {
		return nil, nil, err
	}
	atp := at.Mul(p)
	return m, atp.Mul(a).Sub(atp.Mul(b).Mul(m)).Add(q).Symmetrize(), nil
}

// TestRoverIterateMatchesKernels: one straight-line iterate (feedback, then
// next) must match kernelIterate bit for bit on arbitrary finite systems
// and symmetric iterates, not only the rover's: free entries that are
// exactly 0 or negative, indefinite P, S that needs a row swap, ties
// |s10| = |s00| that the strict pivot test must not swap, and S whose
// pivot falls below the 1e-14 singular bound at either step.
func TestRoverIterateMatchesKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	entry := func(scale float64) float64 {
		if rng.Intn(8) == 0 {
			return 0
		}
		return scale * (2*rng.Float64() - 1)
	}
	q, r := mat.Diag(roverQ[:]), mat.Diag(roverR[:])
	var swaps, ties, singular int
	for n := 0; n < 20000; n++ {
		sys := roverSystem{
			a02: entry(2), a03: entry(2), a12: entry(2), a13: entry(2),
			a33: 1 + entry(0.5), b21: entry(2), b30: entry(2),
		}
		var p [4][4]float64
		for i := range 4 {
			for j := i; j < 4; j++ {
				p[i][j] = entry(5)
				p[j][i] = p[i][j]
			}
		}
		switch rng.Intn(5) {
		case 0: // |s10| = |s00| = 1 + p33
			sys.b21, sys.b30 = 1, 1
			p[2][3] = 1 + p[3][3]
			p[3][2] = p[2][3]
		case 1: // |s00| ≈ 1e-15, s10 = 0: singular at the first pivot
			sys.b30 = 1
			p[3][3], p[2][3], p[3][2] = -1+1e-15, 0, 0
		case 2: // |s11| ≈ 2e-15, s01 = 0: singular at the second pivot
			sys.b21 = 1
			p[2][2], p[2][3], p[3][2] = -2+2e-15, 0, 0
		}
		a := mat.Identity(4)
		a.Set(0, 2, sys.a02)
		a.Set(0, 3, sys.a03)
		a.Set(1, 2, sys.a12)
		a.Set(1, 3, sys.a13)
		a.Set(3, 3, sys.a33)
		b := mat.New(4, 2)
		b.Set(2, 1, sys.b21)
		b.Set(3, 0, sys.b30)
		pm := mat.New(4, 4)
		for i := range 4 {
			copy(pm.Data[4*i:], p[i][:])
		}

		wantM, wantNext, wantErr := kernelIterate(a, b, q, r, pm)
		var m [2][4]float64
		err := sys.feedback(&m, &p)
		if !errors.Is(err, wantErr) {
			t.Fatalf("case %d: feedback err %v, kernels %v (sys %+v, P %v)", n, err, wantErr, sys, p)
		}
		if err != nil {
			singular++
			continue
		}
		s00 := roverR[0] + sys.b30*p[3][3]*sys.b30
		s10 := sys.b21 * p[2][3] * sys.b30
		switch {
		case math.Abs(s10) > math.Abs(s00):
			swaps++
		case math.Abs(s10) == math.Abs(s00):
			ties++
		}
		for i := range 2 {
			for j := range 4 {
				if math.Float64bits(m[i][j]) != math.Float64bits(wantM.At(i, j)) {
					t.Fatalf("case %d: M[%d][%d] = %v, kernels %v", n, i, j, m[i][j], wantM.At(i, j))
				}
			}
		}
		var next [4][4]float64
		d := sys.next(&next, &p, &m)
		for i := range 4 {
			for j := range 4 {
				if math.Float64bits(next[i][j]) != math.Float64bits(wantNext.At(i, j)) {
					t.Fatalf("case %d: next[%d][%d] = %v, kernels %v", n, i, j, next[i][j], wantNext.At(i, j))
				}
			}
		}
		if want := wantNext.MaxAbsDiff(pm); math.Float64bits(d) != math.Float64bits(want) {
			t.Fatalf("case %d: max|Δ| = %v, kernels %v", n, d, want)
		}
	}
	if swaps == 0 || ties == 0 || singular == 0 {
		t.Errorf("pivot cases not reached: %d swaps, %d ties, %d singular", swaps, ties, singular)
	}
}

// TestRoverGainNonFinite: a non-finite operating point fails as on the
// generic path, with mat.ErrNoConvergence and the gain buffer untouched,
// except v = −Inf, which the 0.5 m/s clamp turns into a finite system.
func TestRoverGainNonFinite(t *testing.T) {
	r := vehicle.MustProfile(vehicle.AionR1).Rover
	const dt = 0.01
	inf, nan := math.Inf(1), math.NaN()
	for _, pt := range []struct{ yaw, v float64 }{
		{nan, 1}, {0.7, nan}, {inf, 1}, {-inf, 1}, {0.7, inf}, {0, inf},
	} {
		_, refErr := refRoverGain(r, pt.yaw, pt.v, dt)
		if !errors.Is(refErr, mat.ErrNoConvergence) {
			t.Fatalf("ψ=%v v=%v: reference err %v, want ErrNoConvergence", pt.yaw, pt.v, refErr)
		}
		k := mat.New(2, 4)
		k.Data[0] = 42
		if err := roverGain(k, r, pt.yaw, pt.v, dt); !errors.Is(err, mat.ErrNoConvergence) {
			t.Errorf("ψ=%v v=%v: err %v, want ErrNoConvergence", pt.yaw, pt.v, err)
		}
		if k.Data[0] != 42 {
			t.Errorf("ψ=%v v=%v: failed solve wrote the gain buffer", pt.yaw, pt.v)
		}
	}
	ref, err := refRoverGain(r, 0.7, -inf, dt)
	if err != nil {
		t.Fatalf("reference at v=-Inf: %v", err)
	}
	k := mat.New(2, 4)
	if err := roverGain(k, r, 0.7, -inf, dt); err != nil {
		t.Fatalf("v=-Inf: %v", err)
	}
	if ok, diff := sameGain(k, ref); !ok {
		t.Errorf("v=-Inf: %s", diff)
	}
}

// TestLQRRoverFailedRefreshKeepsGain: a refresh at a non-finite operating
// point keeps the previous gain, or leaves the controller without one (and
// commanding the zero input) when it has none.
func TestLQRRoverFailedRefreshKeepsGain(t *testing.T) {
	l, err := NewLQR(vehicle.MustProfile(vehicle.AionR1), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	target := mission.Waypoint{X: 5, Y: 5}
	if u := l.Update(&vehicle.State{Yaw: math.NaN(), VX: 1}, target, 0.01); u != (vehicle.Input{}) || l.kRover != nil {
		t.Fatalf("NaN heading without a gain: input %+v, gain %v; want zero input, no gain", u, l.kRover)
	}
	l.Update(&vehicle.State{VX: 1}, target, 0.01)
	if l.kRover == nil {
		t.Fatal("rover gain not synthesized")
	}
	want := append([]float64(nil), l.kRover.Data...)
	l.Update(&vehicle.State{VX: math.Inf(1)}, target, 0.01) // |Δv| > 0.8 forces a refresh
	for i, x := range l.kRover.Data {
		if math.Float64bits(x) != math.Float64bits(want[i]) {
			t.Fatalf("failed refresh changed the gain: %v, want %v", l.kRover.Data, want)
		}
	}
}

// TestRoverUpdateZeroAlloc: a rover Update that refreshes its gain on every
// call allocates nothing.
func TestRoverUpdateZeroAlloc(t *testing.T) {
	l, err := NewLQR(vehicle.MustProfile(vehicle.AionR1), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	s := vehicle.State{VX: 1.3}
	target := mission.Waypoint{X: 20, Y: 10}
	l.Update(&s, target, 0.01)
	allocs := testing.AllocsPerRun(20, func() {
		s.Yaw += 0.5 // past the 0.3 rad refresh threshold every call
		l.Update(&s, target, 0.01)
	})
	if allocs != 0 {
		t.Errorf("rover Update with a gain refresh: %v allocs/op, want 0", allocs)
	}
	if l.roverYaw != s.Yaw {
		t.Errorf("last Update did not refresh the gain: linearized at ψ=%v, yaw %v", l.roverYaw, s.Yaw)
	}
}

// BenchmarkRoverGain times one rover gain synthesis on the system of
// BenchmarkSolveDARE/rover in internal/mat: AionR1 linearized at ψ = 0.7,
// v = 1.3 m/s, at the 100 Hz control period.
func BenchmarkRoverGain(b *testing.B) {
	r := vehicle.MustProfile(vehicle.AionR1).Rover
	k := mat.New(2, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := roverGain(k, r, 0.7, 1.3, 0.01); err != nil {
			b.Fatal(err)
		}
	}
}
