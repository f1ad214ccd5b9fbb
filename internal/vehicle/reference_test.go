package vehicle

import "math"

// The integrator as it stood before Step and Derivative passed their RK4
// stages by pointer and shared one Sincos per angle: the reference the
// bit-exactness tests in integrator_test.go compare against. The code is
// verbatim; only the names differ (rk4 → refRK4, addScaled →
// refAddScaled), and the methods hang off refQuad and refRover so that
// they keep their receivers. Do not edit it to follow the package.

type (
	refQuad  Quadcopter
	refRover Rover
)

// Derivative returns d(state)/dt for the current state, input, and wind.
func (q refQuad) Derivative(s State, u Input, w Wind) State {
	cf, sf := math.Cos(s.Roll), math.Sin(s.Roll)
	ct, st := math.Cos(s.Pitch), math.Sin(s.Pitch)
	cp, sp := math.Cos(s.Yaw), math.Sin(s.Yaw)

	// Air-relative velocity for drag.
	rx, ry, rz := s.VX-w.VX, s.VY-w.VY, s.VZ-w.VZ
	kd := q.DragCoef / q.Mass

	var d State
	d.X, d.Y, d.Z = s.VX, s.VY, s.VZ
	d.VX = u.Thrust/q.Mass*(cf*st*cp+sf*sp) - kd*rx
	d.VY = u.Thrust/q.Mass*(cf*st*sp-sf*cp) - kd*ry
	d.VZ = u.Thrust/q.Mass*cf*ct - Gravity - kd*rz
	d.Roll, d.Pitch, d.Yaw = s.WRoll, s.WPitch, s.WYaw
	d.WRoll = u.MRoll/q.IX + s.WPitch*s.WYaw*(q.IY-q.IZ)/q.IX - q.AngularDrag/q.IX*s.WRoll
	d.WPitch = u.MPitch/q.IY + s.WRoll*s.WYaw*(q.IZ-q.IX)/q.IY - q.AngularDrag/q.IY*s.WPitch
	d.WYaw = u.MYaw/q.IZ + s.WRoll*s.WPitch*(q.IX-q.IY)/q.IZ - q.AngularDrag/q.IZ*s.WYaw
	return d
}

// Step advances the quadcopter state by dt seconds with classic RK4 and
// clamps the result to the ground plane (Z ≥ 0; a drone cannot descend
// below ground — the sim layer classifies a hard ground contact as a
// crash).
func (q refQuad) Step(s State, u Input, w Wind, dt float64) State {
	deriv := func(x State) State { return q.Derivative(x, u, w) }
	out := refRK4(s, dt, deriv)
	out.Roll = wrapAngle(out.Roll)
	out.Pitch = wrapAngle(out.Pitch)
	out.Yaw = wrapAngle(out.Yaw)
	if out.Z < 0 {
		out.Z = 0
		if out.VZ < 0 {
			out.VZ = 0
		}
	}
	return out
}

// rk4 performs one classic Runge-Kutta step of the state ODE.
func refRK4(s State, dt float64, f func(State) State) State {
	k1 := f(s)
	k2 := f(refAddScaled(s, k1, dt/2))
	k3 := f(refAddScaled(s, k2, dt/2))
	k4 := f(refAddScaled(s, k3, dt))
	out := s
	c := dt / 6
	out.X += c * (k1.X + 2*k2.X + 2*k3.X + k4.X)
	out.Y += c * (k1.Y + 2*k2.Y + 2*k3.Y + k4.Y)
	out.Z += c * (k1.Z + 2*k2.Z + 2*k3.Z + k4.Z)
	out.VX += c * (k1.VX + 2*k2.VX + 2*k3.VX + k4.VX)
	out.VY += c * (k1.VY + 2*k2.VY + 2*k3.VY + k4.VY)
	out.VZ += c * (k1.VZ + 2*k2.VZ + 2*k3.VZ + k4.VZ)
	out.Roll += c * (k1.Roll + 2*k2.Roll + 2*k3.Roll + k4.Roll)
	out.Pitch += c * (k1.Pitch + 2*k2.Pitch + 2*k3.Pitch + k4.Pitch)
	out.Yaw += c * (k1.Yaw + 2*k2.Yaw + 2*k3.Yaw + k4.Yaw)
	out.WRoll += c * (k1.WRoll + 2*k2.WRoll + 2*k3.WRoll + k4.WRoll)
	out.WPitch += c * (k1.WPitch + 2*k2.WPitch + 2*k3.WPitch + k4.WPitch)
	out.WYaw += c * (k1.WYaw + 2*k2.WYaw + 2*k3.WYaw + k4.WYaw)
	return out
}

func refAddScaled(s, d State, h float64) State {
	return State{
		X: s.X + h*d.X, Y: s.Y + h*d.Y, Z: s.Z + h*d.Z,
		VX: s.VX + h*d.VX, VY: s.VY + h*d.VY, VZ: s.VZ + h*d.VZ,
		Roll: s.Roll + h*d.Roll, Pitch: s.Pitch + h*d.Pitch, Yaw: s.Yaw + h*d.Yaw,
		WRoll: s.WRoll + h*d.WRoll, WPitch: s.WPitch + h*d.WPitch, WYaw: s.WYaw + h*d.WYaw,
	}
}

// SlipAngle returns β for steering angle delta.
func (r refRover) SlipAngle(delta float64) float64 {
	return math.Atan(r.LR / (r.LF + r.LR) * math.Tan(delta))
}

// Derivative returns d(state)/dt for the rover.
func (r refRover) Derivative(s State, u Input, w Wind) State {
	delta := clamp(u.MYaw, -r.MaxSteer, r.MaxSteer)
	beta := r.SlipAngle(delta)
	v := s.Speed2D()

	var d State
	d.X = v*math.Cos(s.Yaw+beta) + r.WindFactor*w.VX
	d.Y = v*math.Sin(s.Yaw+beta) + r.WindFactor*w.VY
	d.Yaw = v / r.LR * math.Sin(beta)
	// Longitudinal acceleration minus rolling resistance, decomposed back
	// onto the world frame through the heading.
	a := u.Thrust - r.DragCoef*v
	d.VX = a*math.Cos(s.Yaw+beta) - v*d.Yaw*math.Sin(s.Yaw+beta)
	d.VY = a*math.Sin(s.Yaw+beta) + v*d.Yaw*math.Cos(s.Yaw+beta)
	d.WYaw = 0 // kinematic model: yaw rate is algebraic, not a state
	return d
}

// Step advances the rover state by dt seconds with RK4 and enforces the
// speed limit.
func (r refRover) Step(s State, u Input, w Wind, dt float64) State {
	deriv := func(x State) State { return r.Derivative(x, u, w) }
	out := refRK4(s, dt, deriv)
	out.Yaw = wrapAngle(out.Yaw)
	out.Z, out.VZ = 0, 0
	out.Roll, out.Pitch = 0, 0
	out.WRoll, out.WPitch = 0, 0
	// Record the algebraic yaw rate so sensors observe it.
	delta := clamp(u.MYaw, -r.MaxSteer, r.MaxSteer)
	beta := r.SlipAngle(delta)
	out.WYaw = out.Speed2D() / r.LR * math.Sin(beta)
	if v := out.Speed2D(); v > r.MaxSpeed {
		scale := r.MaxSpeed / v
		out.VX *= scale
		out.VY *= scale
	}
	return out
}
