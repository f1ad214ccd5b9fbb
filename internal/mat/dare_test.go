package mat_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/vehicle"
)

// TestSolveDARENonFiniteIterate: when the fixed-point iteration leaves the
// finite numbers, SolveDARE must report that it did not converge rather
// than return a NaN P as a solution, which an LQR caller would install as
// its gain.
func TestSolveDARENonFiniteIterate(t *testing.T) {
	nanA := mat.Identity(2)
	nanA.Set(0, 0, math.NaN())
	tests := []struct {
		name string
		a    *mat.Mat
	}{
		// The unstable mode x₁ is unreachable from u, so P grows until it
		// overflows.
		{name: "unstabilizable", a: mat.Diag([]float64{2, 0.5})},
		{name: "NaN in A", a: nanA},
	}
	b := mat.FromRows([][]float64{{0}, {1}})
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p, err := mat.SolveDARE(tt.a, b, mat.Identity(2), mat.Identity(1), 10000, 1e-9)
			if !errors.Is(err, mat.ErrNoConvergence) {
				t.Errorf("err = %v, want ErrNoConvergence (P = %v)", err, p)
			}
			if p != nil {
				t.Errorf("P = %v, want nil", p)
			}
		})
	}
	// A NaN difference after a larger finite one must not read as 4.
	x := mat.FromRows([][]float64{{1, math.NaN()}})
	y := mat.FromRows([][]float64{{5, 0}})
	if d := x.MaxAbsDiff(y); !math.IsNaN(d) {
		t.Errorf("MaxAbsDiff with a NaN entry = %v, want NaN", d)
	}
}

// BenchmarkSolveDARE times the generic Riccati solve at the 100 Hz control
// period on the systems internal/recovery builds: the quadcopter at hover,
// solved once per profile, and the rover linearized at ψ = 0.7,
// v = 1.3 m/s. The recovery controller re-solves the rover's system on its
// own straight-line path (BenchmarkRoverGain in internal/recovery), so the
// rover case here is the generic-path baseline that a faster solver is
// measured against.
func BenchmarkSolveDARE(b *testing.B) {
	const dt = 0.01
	bench := func(name string, a, bm, q, r *mat.Mat) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mat.SolveDARE(a, bm, q, r, 10000, 1e-9); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	rv := vehicle.MustProfile(vehicle.AionR1).Rover
	yaw, v := 0.7, 1.3
	c, s := math.Cos(yaw), math.Sin(yaw)
	ac := mat.New(4, 4)
	ac.Set(0, 2, -v*s)
	ac.Set(0, 3, c)
	ac.Set(1, 2, v*c)
	ac.Set(1, 3, s)
	ac.Set(3, 3, -rv.DragCoef)
	bc := mat.New(4, 2)
	bc.Set(3, 0, 1)
	bc.Set(2, 1, v/(rv.LF+rv.LR))
	bench("rover", mat.Identity(4).Add(ac.Scale(dt)), bc.Scale(dt),
		mat.Diag([]float64{2, 2, 4, 1}), mat.Diag([]float64{1, 2}))

	qd := vehicle.MustProfile(vehicle.Pixhawk).Quad
	kd := qd.DragCoef / qd.Mass
	ac = mat.New(12, 12)
	for i := 0; i < 3; i++ {
		ac.Set(i, 3+i, 1)
		ac.Set(3+i, 3+i, -kd)
		ac.Set(6+i, 9+i, 1)
	}
	ac.Set(3, 7, vehicle.Gravity)
	ac.Set(4, 6, -vehicle.Gravity)
	ac.Set(9, 9, -qd.AngularDrag/qd.IX)
	ac.Set(10, 10, -qd.AngularDrag/qd.IY)
	ac.Set(11, 11, -qd.AngularDrag/qd.IZ)
	bc = mat.New(12, 4)
	bc.Set(5, 0, 1/qd.Mass)
	bc.Set(9, 1, 1/qd.IX)
	bc.Set(10, 2, 1/qd.IY)
	bc.Set(11, 3, 1/qd.IZ)
	bench("quad", mat.Identity(12).Add(ac.Scale(dt)), bc.Scale(dt),
		mat.Diag([]float64{1, 1, 4, 2, 2, 3, 120, 120, 8, 4, 4, 2}),
		mat.Diag([]float64{0.02, 10, 10, 12}))
}
