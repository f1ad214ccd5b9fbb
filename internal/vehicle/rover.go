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
	var d State
	r.DerivativeInto(&d, &s, &u, &w)
	return d
}

// DerivativeInto writes Derivative into *d; d must not alias s.
func (r *Rover) DerivativeInto(d, s *State, u *Input, w *Wind) {
	beta := r.SlipAngle(clamp(u.MYaw, -r.MaxSteer, r.MaxSteer))
	r.deriv(d, s, u, w, beta, math.Sin(beta))
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
// speed limit. It is the value form of StepInto.
func (r Rover) Step(s State, u Input, w Wind, dt float64) State {
	var out State
	r.StepInto(&out, &s, &u, &w, dt)
	return out
}

// StepInto writes Step's result for the state *s into *dst. dst may be
// s: every RK4 stage has read *s before the first write to *dst.
func (r *Rover) StepInto(dst, s *State, u *Input, w *Wind, dt float64) {
	beta := r.SlipAngle(clamp(u.MYaw, -r.MaxSteer, r.MaxSteer))
	sinBeta := math.Sin(beta)
	rk4(&stage{rover: r, u: u, w: w, beta: beta, sinBeta: sinBeta}, dst, s, dt)
	dst.Yaw = wrapAngle(dst.Yaw)
	dst.Z, dst.VZ = 0, 0
	dst.Roll, dst.Pitch = 0, 0
	dst.WRoll, dst.WPitch = 0, 0
	// Record the algebraic yaw rate so sensors observe it.
	dst.WYaw = dst.Speed2D() / r.LR * sinBeta
	if v := dst.Speed2D(); v > r.MaxSpeed {
		scale := r.MaxSpeed / v
		dst.VX *= scale
		dst.VY *= scale
	}
}

// Speed2D returns the ground-plane speed. It takes a pointer receiver:
// inlined through a pointer, a value receiver would copy the whole State.
func (s *State) Speed2D() float64 {
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
