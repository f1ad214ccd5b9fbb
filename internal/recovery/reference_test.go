package recovery

import (
	"math"

	"repro/internal/mat"
	"repro/internal/vehicle"
)

// The rover gain synthesis as it stood before it became straight-line
// code: the generic mat.LQRGain on the matrices it built. It is the
// reference the bit-exactness tests in rovergain_test.go compare against.
// The code is verbatim; only the name differs (roverGain → refRoverGain).
// Do not edit it to follow the package.

// refRoverGain linearizes the kinematic bicycle about (yaw, v) and solves the
// DARE for states [x y ψ v], inputs [a δ].
func refRoverGain(r vehicle.Rover, yaw, v float64, dt float64) (*mat.Mat, error) {
	if v < 0.5 {
		v = 0.5 // keep the steering channel controllable
	}
	wheelbase := r.LF + r.LR
	c, s := math.Cos(yaw), math.Sin(yaw)

	ac := mat.New(4, 4)
	// ẋ = v cosψ ; ẏ = v sinψ
	ac.Set(0, 2, -v*s)
	ac.Set(0, 3, c)
	ac.Set(1, 2, v*c)
	ac.Set(1, 3, s)
	// v̇ = a − drag·v
	ac.Set(3, 3, -r.DragCoef)

	bc := mat.New(4, 2)
	bc.Set(3, 0, 1)           // a → v̇
	bc.Set(2, 1, v/wheelbase) // δ → ψ̇

	a := mat.Identity(4).Add(ac.Scale(dt))
	b := bc.Scale(dt)
	qCost := mat.Diag([]float64{2, 2, 4, 1})
	rCost := mat.Diag([]float64{1, 2})
	return mat.LQRGain(a, b, qCost, rCost)
}
