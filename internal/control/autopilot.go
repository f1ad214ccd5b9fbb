package control

import (
	"math"

	"repro/internal/mission"
	"repro/internal/vehicle"
)

// Autopilot turns a state estimate and a navigation target into an
// actuation command. It is deliberately estimate-agnostic: the framework
// decides whether it is fed EKF estimates, reconstructed states, or
// recovery setpoints.
type Autopilot interface {
	// Update computes the actuation for the current estimate and target.
	// The estimate is passed by pointer (a call through an interface
	// copies every value argument) and is only read.
	Update(est *vehicle.State, target mission.Waypoint, dt float64) vehicle.Input
	// Reset clears controller memory (integral states etc.).
	Reset()
}

// Compile-time interface checks.
var (
	_ Autopilot = (*QuadAutopilot)(nil)
	_ Autopilot = (*RoverAutopilot)(nil)
)

// QuadAutopilot is the cascaded position → velocity → attitude PID stack
// for quadcopters.
type QuadAutopilot struct {
	profile vehicle.Profile

	// Outer-loop gains.
	kpPos, kpAlt  float64
	kVel, kVelZ   float64
	maxClimb      float64
	maxDescend    float64
	maxHorizSpeed float64

	// Inner attitude/rate loops.
	kAtt, kRate float64

	// Yaw hold.
	yawPID PID
}

// NewQuadAutopilot returns a tuned autopilot for the given quad profile.
func NewQuadAutopilot(p vehicle.Profile) *QuadAutopilot {
	return &QuadAutopilot{
		profile:       p,
		kpPos:         0.9,
		kpAlt:         1.0,
		kVel:          2.0,
		kVelZ:         3.0,
		maxClimb:      2.5,
		maxDescend:    1.5,
		maxHorizSpeed: p.CruiseSpeed,
		kAtt:          6.0,
		kRate:         20.0,
		yawPID:        PID{KP: 2.0, KD: 0.5},
	}
}

// Reset clears controller memory.
func (a *QuadAutopilot) Reset() {
	a.yawPID.Reset()
}

// Update runs one control tick.
func (a *QuadAutopilot) Update(est *vehicle.State, target mission.Waypoint, dt float64) vehicle.Input {
	q := a.profile.Quad

	// Position → desired velocity.
	vxDes := a.kpPos * (target.X - est.X)
	vyDes := a.kpPos * (target.Y - est.Y)
	if sp := math.Hypot(vxDes, vyDes); sp > a.maxHorizSpeed {
		scale := a.maxHorizSpeed / sp
		vxDes *= scale
		vyDes *= scale
	}
	vzDes := vehicle.Clamp(a.kpAlt*(target.Z-est.Z), -a.maxDescend, a.maxClimb)

	// Velocity → desired acceleration.
	axDes := a.kVel * (vxDes - est.VX)
	ayDes := a.kVel * (vyDes - est.VY)
	azDes := a.kVelZ * (vzDes - est.VZ)

	// Acceleration → attitude setpoints (rotate into the body-yaw frame;
	// small-angle: v̇ ≈ g·θ along body-x, −g·φ along body-y).
	cy, sy := math.Cos(est.Yaw), math.Sin(est.Yaw)
	axBody := axDes*cy + ayDes*sy
	ayBody := -axDes*sy + ayDes*cy
	pitchDes := vehicle.Clamp(axBody/vehicle.Gravity, -a.profile.MaxTilt, a.profile.MaxTilt)
	rollDes := vehicle.Clamp(-ayBody/vehicle.Gravity, -a.profile.MaxTilt, a.profile.MaxTilt)

	// Vertical acceleration → thrust, compensating for tilt.
	tilt := math.Cos(est.Roll) * math.Cos(est.Pitch)
	if tilt < 0.5 {
		tilt = 0.5
	}
	thrust := q.Mass * (vehicle.Gravity + azDes) / tilt
	thrust = vehicle.Clamp(thrust, 0.1*q.HoverThrust(), a.profile.MaxThrust)

	// Attitude → rate setpoints → moments (PD with damping on rate).
	rollRateDes := a.kAtt * vehicle.WrapAngle(rollDes-est.Roll)
	pitchRateDes := a.kAtt * vehicle.WrapAngle(pitchDes-est.Pitch)
	yawRateDes := a.yawPID.UpdateWithRate(vehicle.WrapAngle(0-est.Yaw), est.WYaw, dt)

	// Moment saturation: bound the torque authority to what a ~2.5 rad/s
	// rate error commands. Without this, a spoofed gyro rate (up to
	// ±9.5 rad/s bias) would slam full counter-torque into the airframe
	// during the detection latency and tumble the vehicle before the
	// defense can isolate the sensor.
	maxRateErr := 2.5
	mRoll := q.IX * a.kRate * vehicle.Clamp(rollRateDes-est.WRoll, -maxRateErr, maxRateErr)
	mPitch := q.IY * a.kRate * vehicle.Clamp(pitchRateDes-est.WPitch, -maxRateErr, maxRateErr)
	mYaw := q.IZ * a.kRate * vehicle.Clamp(yawRateDes-est.WYaw, -maxRateErr, maxRateErr)

	return vehicle.Input{Thrust: thrust, MRoll: mRoll, MPitch: mPitch, MYaw: mYaw}
}

// RoverAutopilot is the steering/speed PID controller for ground rovers.
type RoverAutopilot struct {
	profile  vehicle.Profile
	steerPID PID
	speedPID PID
	// SlowdownRadius is the distance at which the rover starts braking
	// toward a waypoint.
	SlowdownRadius float64
}

// NewRoverAutopilot returns a tuned autopilot for the given rover profile.
func NewRoverAutopilot(p vehicle.Profile) *RoverAutopilot {
	return &RoverAutopilot{
		profile:        p,
		steerPID:       PID{KP: 1.8, KD: 0.2, OutMin: -p.Rover.MaxSteer, OutMax: p.Rover.MaxSteer},
		speedPID:       PID{KP: 1.5, KI: 0.3, IMax: 1.0, OutMin: -p.MaxThrust, OutMax: p.MaxThrust},
		SlowdownRadius: 4,
	}
}

// Reset clears controller memory.
func (a *RoverAutopilot) Reset() {
	a.steerPID.Reset()
	a.speedPID.Reset()
}

// Update runs one control tick.
func (a *RoverAutopilot) Update(est *vehicle.State, target mission.Waypoint, dt float64) vehicle.Input {
	dx, dy := target.X-est.X, target.Y-est.Y
	dist := math.Hypot(dx, dy)

	headingDes := math.Atan2(dy, dx)
	headingErr := vehicle.WrapAngle(headingDes - est.Yaw)
	steer := a.steerPID.Update(headingErr, dt)

	speedDes := a.profile.CruiseSpeed
	if dist < a.SlowdownRadius {
		speedDes *= dist / a.SlowdownRadius
	}
	// Do not drive hard while pointing the wrong way.
	if math.Abs(headingErr) > math.Pi/3 {
		speedDes *= 0.3
	}
	accel := a.speedPID.Update(speedDes-est.Speed2D(), dt)

	return vehicle.Input{Thrust: accel, MYaw: steer}
}

// ForProfile returns the appropriate autopilot for the profile's kind.
func ForProfile(p vehicle.Profile) Autopilot {
	if p.IsQuad() {
		return NewQuadAutopilot(p)
	}
	return NewRoverAutopilot(p)
}
