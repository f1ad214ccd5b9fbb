package vehicle

import "math"

// Rover is the kinematic bicycle model of Appendix A.2 (Kong et al.):
//
//	β  = atan( l_r/(l_f+l_r) · tan δ )
//	ẋ  = v·cos(ψ+β)
//	ẏ  = v·sin(ψ+β)
//	ψ̇  = (v/l_r)·sin β
//	v̇  = a
//
// where δ is the steering angle and a the longitudinal acceleration
// command. The rover reuses State with Z/attitude channels other than Yaw
// held at zero, and Input with Thrust = a, MYaw = δ.
type Rover struct {
	// LF and LR are the distances from the centre of mass to the front
	// and rear axles, in metres.
	LF, LR float64
	// MaxSteer clamps |δ| in radians.
	MaxSteer float64
	// MaxSpeed clamps the forward speed in m/s.
	MaxSpeed float64
	// DragCoef is a linear rolling-resistance coefficient applied against
	// the ground-relative speed (1/s). Wind couples in weakly via the
	// relative-velocity term scaled by WindFactor.
	DragCoef float64
	// WindFactor scales how strongly wind pushes the rover (rovers are far
	// less wind-sensitive than drones).
	WindFactor float64
}

// SlipAngle returns β for steering angle delta.
func (r Rover) SlipAngle(delta float64) float64 {
	return math.Atan(r.LR / (r.LF + r.LR) * math.Tan(delta))
}

// Derivative returns d(state)/dt for the rover.
func (r Rover) Derivative(s State, u Input, w Wind) State {
	beta := r.SlipAngle(clamp(u.MYaw, -r.MaxSteer, r.MaxSteer))
	var d State
	r.deriv(&d, &s, &u, &w, beta, math.Sin(beta))
	return d
}

// deriv writes Derivative into *d, given the slip angle β of the clamped
// steering and sin β; d must not alias s.
func (r *Rover) deriv(d, s *State, u *Input, w *Wind, beta, sinBeta float64) {
	v := s.Speed2D()
	sh, ch := math.Sincos(s.Yaw + beta)

	d.X = v*ch + r.WindFactor*w.VX
	d.Y = v*sh + r.WindFactor*w.VY
	d.Yaw = v / r.LR * sinBeta
	// Longitudinal acceleration minus rolling resistance, decomposed back
	// onto the world frame through the heading.
	a := u.Thrust - r.DragCoef*v
	d.VX = a*ch - v*d.Yaw*sh
	d.VY = a*sh + v*d.Yaw*ch
	d.Z, d.VZ = 0, 0
	d.Roll, d.Pitch = 0, 0
	d.WRoll, d.WPitch = 0, 0
	d.WYaw = 0 // kinematic model: yaw rate is algebraic, not a state
}

// Step advances the rover state by dt seconds with RK4 and enforces the
// speed limit.
func (r Rover) Step(s State, u Input, w Wind, dt float64) State {
	beta := r.SlipAngle(clamp(u.MYaw, -r.MaxSteer, r.MaxSteer))
	sinBeta := math.Sin(beta)
	out := rk4(&stage{rover: &r, u: &u, w: &w, beta: beta, sinBeta: sinBeta}, &s, dt)
	out.Yaw = wrapAngle(out.Yaw)
	out.Z, out.VZ = 0, 0
	out.Roll, out.Pitch = 0, 0
	out.WRoll, out.WPitch = 0, 0
	// Record the algebraic yaw rate so sensors observe it.
	out.WYaw = out.Speed2D() / r.LR * sinBeta
	if v := out.Speed2D(); v > r.MaxSpeed {
		scale := r.MaxSpeed / v
		out.VX *= scale
		out.VY *= scale
	}
	return out
}

// Speed2D returns the ground-plane speed.
func (s State) Speed2D() float64 {
	return math.Sqrt(s.VX*s.VX + s.VY*s.VY)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clamp bounds v to [lo, hi]. Exported for controller saturation logic.
func Clamp(v, lo, hi float64) float64 { return clamp(v, lo, hi) }
