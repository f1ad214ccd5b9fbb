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

	// Quadcopter gain (12 states × 4 inputs) around hover.
	kQuad *mat.Mat

	// Rover gain (2 inputs × 4 states) around the last linearization
	// point: nil until the first synthesis succeeds, then kRoverBuf, which
	// every refresh overwrites in place.
	kRover    *mat.Mat
	kRoverBuf *mat.Mat
	roverYaw  float64
	roverVel  float64

	// Workspaces: Update runs every recovery tick on the zero-allocation
	// hot path, so the error and action vectors are preallocated here and
	// reused via the *Into kernels.
	errQuad  mat.Vec
	duQuad   mat.Vec
	errRover mat.Vec
	duRover  mat.Vec
}

// NewLQR synthesizes the recovery controller for a profile at control
// period dt.
func NewLQR(p vehicle.Profile, dt float64) (*LQR, error) {
	var kQuad *mat.Mat
	if p.IsQuad() {
		k, err := quadGain(p.Quad, dt)
		if err != nil {
			return nil, fmt.Errorf("recovery lqr (%s): %w", p.Name, err)
		}
		kQuad = k
	}
	return newLQR(p, dt, kQuad), nil
}

// newLQR allocates the controller and its Update workspaces.
func newLQR(p vehicle.Profile, dt float64, kQuad *mat.Mat) *LQR {
	return &LQR{
		profile:   p,
		dt:        dt,
		kQuad:     kQuad,
		kRoverBuf: mat.New(2, 4),
		errQuad:   mat.NewVec(12),
		duQuad:    mat.NewVec(4),
		errRover:  mat.NewVec(4),
		duRover:   mat.NewVec(2),
	}
}

// QuadGain synthesizes the hover LQR gain for a quad profile at control
// period dt — the per-profile DARE solve that dominates per-mission
// setup cost. The returned matrix is read-only in Update, so one gain
// can be shared by every mission with the same (profile, dt). Returns
// nil for rovers: their gain depends on the operating point and is
// synthesized lazily per recovery episode.
func QuadGain(p vehicle.Profile, dt float64) (*mat.Mat, error) {
	if !p.IsQuad() {
		return nil, nil
	}
	k, err := quadGain(p.Quad, dt)
	if err != nil {
		return nil, fmt.Errorf("recovery lqr (%s): %w", p.Name, err)
	}
	return k, nil
}

// NewLQRShared builds the controller around a precomputed quad gain
// (from QuadGain for the same profile and dt), skipping the per-mission
// DARE solve. The gain is referenced, not copied; callers must treat it
// as immutable. A nil gain for a quad profile falls back to solving.
func NewLQRShared(p vehicle.Profile, dt float64, kQuad *mat.Mat) (*LQR, error) {
	if p.IsQuad() && kQuad == nil {
		return NewLQR(p, dt)
	}
	return newLQR(p, dt, kQuad), nil
}

// Reset clears the cached rover gain; the LQR is otherwise stateless
// between ticks.
func (l *LQR) Reset() {
	l.kRover = nil
}

// Update derives the recovery control action u = u_ref − K(x − x_ref).
func (l *LQR) Update(est *vehicle.State, target mission.Waypoint, dt float64) vehicle.Input {
	if l.profile.IsQuad() {
		return l.updateQuad(est, target)
	}
	return l.updateRover(est, target)
}

func (l *LQR) updateQuad(est *vehicle.State, target mission.Waypoint) vehicle.Input {
	// Reference: at the target waypoint, level hover — so the error is the
	// state vector with the target position subtracted.
	err := l.errQuad
	est.VecInto(err)
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
	mat.MulVecInto(l.duQuad, l.kQuad, err)
	du := l.duQuad
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
	if l.kRover == nil ||
		math.Abs(vehicle.WrapAngle(est.Yaw-l.roverYaw)) > 0.3 ||
		math.Abs(v-l.roverVel) > 0.8 {
		l.refreshRoverGain(est.Yaw, v)
	}
	if l.kRover == nil {
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
	errVec := l.errRover
	errVec[0] = vehicle.Clamp(-dx, -8, 8)
	errVec[1] = vehicle.Clamp(-dy, -8, 8)
	errVec[2] = vehicle.WrapAngle(est.Yaw - headingRef)
	errVec[3] = v - speedRef
	mat.MulVecInto(l.duRover, l.kRover, errVec)
	du := l.duRover
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
	if roverGain(l.kRoverBuf, l.profile.Rover, yaw, v, l.dt) == nil {
		l.kRover = l.kRoverBuf
		l.roverYaw = yaw
		l.roverVel = v
	}
}
