// Package recovery implements the recovery controller of the
// checkpoint-based attack recovery the paper builds on and compares
// against (§3.1, §5.1): a discrete Linear Quadratic Regulator in the style
// of Zhang et al. — LQR-O when driven by worst-case roll-forward states,
// targeted when driven by DeLorean's reconstructed states. The
// model-based baselines SSR (software sensors) and PID-Piper
// (feed-forward control) fly the nominal autopilot on model state
// instead; their control laws live in internal/core's strategy registry,
// and *LQR is the one recovery controller.
//
// The recovery controller's job is identical across techniques: given a
// state estimate and the mission target, derive recovery control actions
// that steer the RV back to its set trajectory. What differs between
// techniques — and what the paper's evaluation isolates — is the quality
// of the estimate each technique feeds it.
package recovery

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/mission"
	"repro/internal/vehicle"
)

// LQR is the discrete infinite-horizon LQR recovery controller. For
// quadcopters the gain is synthesized once around hover; for rovers the
// linearization depends on heading and speed, so the gain is refreshed
// when the operating point drifts.
type LQR struct {
	profile vehicle.Profile
	dt      float64

	// Quadcopter gain (4 inputs × 12 states) around hover; nil for rovers.
	// It may be shared between controllers and is never written.
	kQuad *[4][12]float64

	// Rover gain (2 inputs × 4 states) around the last linearization
	// point, valid once hasRover is set; every refresh overwrites it in
	// place.
	kRover   [2][4]float64
	hasRover bool
	roverYaw float64
	roverVel float64
}

// NewLQR synthesizes the recovery controller for a profile at control
// period dt.
func NewLQR(p vehicle.Profile, dt float64) (*LQR, error) {
	k, err := QuadGain(p, dt)
	if err != nil {
		return nil, err
	}
	return &LQR{profile: p, dt: dt, kQuad: k}, nil
}

// QuadGain synthesizes the hover LQR gain for a quad profile at control
// period dt — the per-profile DARE solve that dominates per-mission
// setup cost. The returned gain is read-only in Update, so one gain can
// be shared by every mission with the same (profile, dt). Returns nil
// for rovers: their gain depends on the operating point and is
// synthesized lazily per recovery episode.
func QuadGain(p vehicle.Profile, dt float64) (*[4][12]float64, error) {
	if !p.IsQuad() {
		return nil, nil
	}
	k, err := quadGain(p.Quad, dt)
	if err != nil {
		return nil, fmt.Errorf("recovery lqr (%s): %w", p.Name, err)
	}
	var out [4][12]float64
	for i := range out {
		copy(out[i][:], k.Data[i*12:(i+1)*12])
	}
	return &out, nil
}

// NewLQRShared builds the controller around a precomputed quad gain
// (from QuadGain for the same profile and dt), skipping the per-mission
// DARE solve. The gain is referenced, not copied; callers must treat it
// as immutable. A nil gain for a quad profile falls back to solving.
func NewLQRShared(p vehicle.Profile, dt float64, kQuad *[4][12]float64) (*LQR, error) {
	if p.IsQuad() && kQuad == nil {
		return NewLQR(p, dt)
	}
	return &LQR{profile: p, dt: dt, kQuad: kQuad}, nil
}

// Reset clears the cached rover gain; the LQR is otherwise stateless
// between ticks.
func (l *LQR) Reset() {
	l.hasRover = false
}

// Update derives the recovery control action u = u_ref − K(x − x_ref).
func (l *LQR) Update(est *vehicle.State, target mission.Waypoint) vehicle.Input {
	if l.profile.IsQuad() {
		return l.updateQuad(est, target)
	}
	return l.updateRover(est, target)
}

func (l *LQR) updateQuad(est *vehicle.State, target mission.Waypoint) vehicle.Input {
	// Reference: at the target waypoint, level hover — so the error is the
	// state vector with the target position subtracted.
	var err [12]float64
	est.VecInto(err[:])
	err[0] -= target.X
	err[1] -= target.Y
	err[2] -= target.Z
	// Wrap angular errors.
	for i := 6; i <= 8; i++ {
		err[i] = vehicle.WrapAngle(err[i])
	}
	// Limit the position error magnitude the regulator sees, so a distant
	// target yields a bounded (cruise-like) approach instead of a violent
	// one. This is the standard recovery-controller saturation.
	const maxPosErr = 4.0
	for i := 0; i < 3; i++ {
		err[i] = vehicle.Clamp(err[i], -maxPosErr, maxPosErr)
	}
	// du = K·err, each entry summed from +0 in column order, as
	// mat.MulVecInto sums a row (TestLQRUpdateMatchesReference).
	var du [4]float64
	for i := range l.kQuad {
		var s float64
		for j, k := range &l.kQuad[i] {
			s += k * err[j]
		}
		du[i] = s
	}
	q := l.profile.Quad
	u := vehicle.Input{
		Thrust: q.HoverThrust() - du[0],
		MRoll:  -du[1],
		MPitch: -du[2],
		MYaw:   -du[3],
	}
	u.Thrust = vehicle.Clamp(u.Thrust, 0.1*q.HoverThrust(), l.profile.MaxThrust)
	mmax := 4 * q.IX * 20 // comparable to the PID stack's moment authority
	u.MRoll = vehicle.Clamp(u.MRoll, -mmax, mmax)
	u.MPitch = vehicle.Clamp(u.MPitch, -mmax, mmax)
	u.MYaw = vehicle.Clamp(u.MYaw, -mmax, mmax)
	return u
}

// quadGain linearizes the quadcopter around hover and solves the DARE.
//
// Continuous-time linearization (small angles, hover thrust):
//
//	ṗ = v;  v̇x = g·θ;  v̇y = −g·φ;  v̇z = δT/m
//	φ̇ = ωφ …;  ω̇ = δM/I
//
// discretized with forward Euler at dt.
func quadGain(q vehicle.Quadcopter, dt float64) (*mat.Mat, error) {
	const n, m = 12, 4
	g := vehicle.Gravity
	kd := q.DragCoef / q.Mass

	ac := mat.New(n, n)
	// ṗ = v
	for i := 0; i < 3; i++ {
		ac.Set(i, 3+i, 1)
	}
	// v̇x = g·θ − kd·vx ; v̇y = −g·φ − kd·vy ; v̇z = −kd·vz (+δT/m via B)
	ac.Set(3, 7, g)
	ac.Set(3, 3, -kd)
	ac.Set(4, 6, -g)
	ac.Set(4, 4, -kd)
	ac.Set(5, 5, -kd)
	// attitude kinematics
	for i := 0; i < 3; i++ {
		ac.Set(6+i, 9+i, 1)
	}
	// rate damping
	ac.Set(9, 9, -q.AngularDrag/q.IX)
	ac.Set(10, 10, -q.AngularDrag/q.IY)
	ac.Set(11, 11, -q.AngularDrag/q.IZ)

	bc := mat.New(n, m)
	bc.Set(5, 0, 1/q.Mass) // δT → v̇z
	bc.Set(9, 1, 1/q.IX)
	bc.Set(10, 2, 1/q.IY)
	bc.Set(11, 3, 1/q.IZ)

	a := mat.Identity(n).Add(ac.Scale(dt))
	b := bc.Scale(dt)

	// Cost: track position, damp velocity, and keep attitude strongly
	// penalized so the regulator never commands tilts that risk loss of
	// control — recovery must be gentle by construction.
	qCost := mat.Diag([]float64{
		1, 1, 4, // position
		2, 2, 3, // velocity
		120, 120, 8, // attitude
		4, 4, 2, // rates
	})
	rCost := mat.Diag([]float64{
		0.02,       // thrust
		10, 10, 12, // moments (expensive: avoid violent torques)
	})
	return mat.LQRGain(a, b, qCost, rCost)
}

func (l *LQR) updateRover(est *vehicle.State, target mission.Waypoint) vehicle.Input {
	v := est.Speed2D()
	// Refresh the linearization when the operating point has moved.
	if !l.hasRover ||
		math.Abs(vehicle.WrapAngle(est.Yaw-l.roverYaw)) > 0.3 ||
		math.Abs(v-l.roverVel) > 0.8 {
		l.refreshRoverGain(est.Yaw, v)
	}
	if !l.hasRover {
		return vehicle.Input{}
	}
	// Reference: target point, heading toward it, cruise speed scaled by
	// distance.
	dx, dy := target.X-est.X, target.Y-est.Y
	dist := math.Hypot(dx, dy)
	headingRef := math.Atan2(dy, dx)
	speedRef := l.profile.CruiseSpeed
	if dist < 4 {
		speedRef *= dist / 4
	}
	err := [4]float64{
		vehicle.Clamp(-dx, -8, 8),
		vehicle.Clamp(-dy, -8, 8),
		vehicle.WrapAngle(est.Yaw - headingRef),
		v - speedRef,
	}
	var du [2]float64 // K·err, as in updateQuad
	for i := range l.kRover {
		var s float64
		for j, k := range &l.kRover[i] {
			s += k * err[j]
		}
		du[i] = s
	}
	u := vehicle.Input{
		Thrust: vehicle.Clamp(-du[0], -l.profile.MaxThrust, l.profile.MaxThrust),
		MYaw:   vehicle.Clamp(-du[1], -l.profile.Rover.MaxSteer, l.profile.Rover.MaxSteer),
	}
	return u
}

// refreshRoverGain re-linearizes the rover model about the current
// operating point and overwrites the cached gain in place, so it allocates
// nothing although it runs on the recovery tick. A synthesis failure
// keeps the previous gain.
func (l *LQR) refreshRoverGain(yaw, v float64) {
	if roverGain(&l.kRover, l.profile.Rover, yaw, v, l.dt) == nil {
		l.hasRover = true
		l.roverYaw = yaw
		l.roverVel = v
	}
}
