package vehicle

import "math"

// Quadcopter is the 6-DOF drone model of Appendix A.2:
//
//	v̇x = (U_t/m)(cosφ sinθ cosψ + sinφ sinψ)
//	v̇y = (U_t/m)(cosφ sinθ sinψ − sinφ cosψ)
//	v̇z = (U_t/m) cosφ cosθ − g
//	φ̇ = ωφ, θ̇ = ωθ, ψ̇ = ωψ
//	ω̇φ = U_φ/I_x + ωθ·ωψ·(I_y−I_z)/I_x
//	ω̇θ = U_θ/I_y + ωφ·ωψ·(I_z−I_x)/I_y
//	ω̇ψ = U_ψ/I_z + ωφ·ωθ·(I_x−I_y)/I_z
//
// augmented with a linear aerodynamic drag term against the air-relative
// velocity, which both keeps the closed loop realistic and gives wind a
// physical coupling into the translational dynamics.
type Quadcopter struct {
	// Mass in kg.
	Mass float64
	// Moments of inertia about the body axes, kg·m².
	IX, IY, IZ float64
	// DragCoef is the linear translational drag coefficient, N·s/m.
	DragCoef float64
	// AngularDrag is the linear rotational damping coefficient, N·m·s.
	AngularDrag float64
}

// HoverThrust returns the thrust that exactly cancels gravity at level
// attitude.
func (q Quadcopter) HoverThrust() float64 {
	return q.Mass * Gravity
}

// Derivative returns d(state)/dt for the current state, input, and wind.
func (q Quadcopter) Derivative(s State, u Input, w Wind) State {
	var d State
	q.DerivativeInto(&d, &s, &u, &w)
	return d
}

// DerivativeInto writes Derivative into *d; d must not alias s.
func (q *Quadcopter) DerivativeInto(d, s *State, u *Input, w *Wind) {
	sf, cf := math.Sincos(s.Roll)
	st, ct := math.Sincos(s.Pitch)
	sp, cp := math.Sincos(s.Yaw)

	// Air-relative velocity for drag.
	rx, ry, rz := s.VX-w.VX, s.VY-w.VY, s.VZ-w.VZ
	kd := q.DragCoef / q.Mass

	d.X, d.Y, d.Z = s.VX, s.VY, s.VZ
	d.VX = u.Thrust/q.Mass*(cf*st*cp+sf*sp) - kd*rx
	d.VY = u.Thrust/q.Mass*(cf*st*sp-sf*cp) - kd*ry
	d.VZ = u.Thrust/q.Mass*cf*ct - Gravity - kd*rz
	d.Roll, d.Pitch, d.Yaw = s.WRoll, s.WPitch, s.WYaw
	d.WRoll = u.MRoll/q.IX + s.WPitch*s.WYaw*(q.IY-q.IZ)/q.IX - q.AngularDrag/q.IX*s.WRoll
	d.WPitch = u.MPitch/q.IY + s.WRoll*s.WYaw*(q.IZ-q.IX)/q.IY - q.AngularDrag/q.IY*s.WPitch
	d.WYaw = u.MYaw/q.IZ + s.WRoll*s.WPitch*(q.IX-q.IY)/q.IZ - q.AngularDrag/q.IZ*s.WYaw
}

// Step advances the quadcopter state by dt seconds with classic RK4 and
// clamps the result to the ground plane (Z ≥ 0; a drone cannot descend
// below ground — the sim layer classifies a hard ground contact as a
// crash). It is the value form of StepInto.
func (q Quadcopter) Step(s State, u Input, w Wind, dt float64) State {
	var out State
	q.StepInto(&out, &s, &u, &w, dt)
	return out
}

// StepInto writes Step's result for the state *s into *dst. dst may be
// s: every RK4 stage has read *s before the first write to *dst.
func (q *Quadcopter) StepInto(dst, s *State, u *Input, w *Wind, dt float64) {
	rk4(&stage{quad: q, u: u, w: w}, dst, s, dt)
	dst.Roll = wrapAngle(dst.Roll)
	dst.Pitch = wrapAngle(dst.Pitch)
	dst.Yaw = wrapAngle(dst.Yaw)
	if dst.Z < 0 {
		dst.Z = 0
		if dst.VZ < 0 {
			dst.VZ = 0
		}
	}
}

// stage is the right-hand side rk4 integrates: one vehicle's derivative
// under an input and wind held fixed over the step. Exactly one of quad
// and rover is set. The rover's slip angle depends only on the input, so
// Step computes β and sin β once and every stage reuses them.
type stage struct {
	quad          *Quadcopter
	rover         *Rover
	u             *Input
	w             *Wind
	beta, sinBeta float64
}

// deriv writes the derivative at s into *d.
func (st *stage) deriv(d, s *State) {
	if st.quad != nil {
		st.quad.DerivativeInto(d, s, st.u, st.w)
		return
	}
	st.rover.deriv(d, s, st.u, st.w, st.beta, st.sinBeta)
}

// rk4 performs one classic Runge-Kutta step of the state ODE from *s
// and writes the result into *dst. The stage states live in this frame
// and reach deriv by pointer, so no 96-byte State is copied in or out of
// a stage. dst may be s: all four stages have read *s before the first
// write to *dst, and each output channel reads only its own input
// channel.
func rk4(st *stage, dst, s *State, dt float64) {
	var k1, k2, k3, k4, x State
	st.deriv(&k1, s)
	addScaled(&x, s, &k1, dt/2)
	st.deriv(&k2, &x)
	addScaled(&x, s, &k2, dt/2)
	st.deriv(&k3, &x)
	addScaled(&x, s, &k3, dt)
	st.deriv(&k4, &x)
	c := dt / 6
	dst.X = s.X + c*(k1.X+2*k2.X+2*k3.X+k4.X)
	dst.Y = s.Y + c*(k1.Y+2*k2.Y+2*k3.Y+k4.Y)
	dst.Z = s.Z + c*(k1.Z+2*k2.Z+2*k3.Z+k4.Z)
	dst.VX = s.VX + c*(k1.VX+2*k2.VX+2*k3.VX+k4.VX)
	dst.VY = s.VY + c*(k1.VY+2*k2.VY+2*k3.VY+k4.VY)
	dst.VZ = s.VZ + c*(k1.VZ+2*k2.VZ+2*k3.VZ+k4.VZ)
	dst.Roll = s.Roll + c*(k1.Roll+2*k2.Roll+2*k3.Roll+k4.Roll)
	dst.Pitch = s.Pitch + c*(k1.Pitch+2*k2.Pitch+2*k3.Pitch+k4.Pitch)
	dst.Yaw = s.Yaw + c*(k1.Yaw+2*k2.Yaw+2*k3.Yaw+k4.Yaw)
	dst.WRoll = s.WRoll + c*(k1.WRoll+2*k2.WRoll+2*k3.WRoll+k4.WRoll)
	dst.WPitch = s.WPitch + c*(k1.WPitch+2*k2.WPitch+2*k3.WPitch+k4.WPitch)
	dst.WYaw = s.WYaw + c*(k1.WYaw+2*k2.WYaw+2*k3.WYaw+k4.WYaw)
}

// addScaled sets *x = s + h·d.
func addScaled(x, s, d *State, h float64) {
	x.X, x.Y, x.Z = s.X+h*d.X, s.Y+h*d.Y, s.Z+h*d.Z
	x.VX, x.VY, x.VZ = s.VX+h*d.VX, s.VY+h*d.VY, s.VZ+h*d.VZ
	x.Roll, x.Pitch, x.Yaw = s.Roll+h*d.Roll, s.Pitch+h*d.Pitch, s.Yaw+h*d.Yaw
	x.WRoll, x.WPitch, x.WYaw = s.WRoll+h*d.WRoll, s.WPitch+h*d.WPitch, s.WYaw+h*d.WYaw
}

// wrapAngle wraps an angle to (−π, π].
func wrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// WrapAngle wraps an angle to (−π, π]. Exported for use by controllers
// computing heading errors.
func WrapAngle(a float64) float64 { return wrapAngle(a) }
