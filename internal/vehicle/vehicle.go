// Package vehicle implements the physics substrate the paper's evaluation
// ran on: a 6-DOF quadcopter (the drone dynamics of Appendix A.2) and a
// kinematic-bicycle ground rover (Kong et al., as cited in Appendix A.2),
// both integrated with fixed-step RK4, plus the six vehicle profiles of
// Table 2 (Pixhawk, Tarot, Sky-Viper, ArduCopter, Aion R1, ArduRover).
//
// The paper evaluated on real RVs and on ArduPilot SITL/Gazebo. There is
// no Go robotics/SITL ecosystem, so this package is the simulated
// substitute: the attack/diagnosis/recovery code path above it is
// identical to the paper's, which injected attacks in software at the
// sensor boundary regardless of the physics below (paper §5.3).
package vehicle

import "math"

// Gravity is the gravitational acceleration used by the quadcopter model.
const Gravity = 9.81

// Kind distinguishes the two vehicle classes in the evaluation.
type Kind int

// Vehicle kinds.
const (
	KindQuadcopter Kind = iota + 1
	KindRover
)

// String returns the human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindQuadcopter:
		return "quadcopter"
	case KindRover:
		return "rover"
	default:
		return "unknown"
	}
}

// State is the 12-dimensional rigid-body state of a quadcopter, and a
// superset of the rover state (rovers leave the z/attitude channels at
// zero except yaw ψ).
//
// Units: position m, velocity m/s, angles rad, angular velocity rad/s.
type State struct {
	// Position in the world frame (NED-like; Z is altitude up).
	X, Y, Z float64
	// Velocity in the world frame.
	VX, VY, VZ float64
	// Euler angles: roll φ, pitch θ, yaw ψ.
	Roll, Pitch, Yaw float64
	// Body angular rates.
	WRoll, WPitch, WYaw float64
}

// Vec flattens the state into a 12-vector in the canonical order
// [x y z vx vy vz φ θ ψ ωφ ωθ ωψ].
func (s State) Vec() []float64 {
	return []float64{
		s.X, s.Y, s.Z,
		s.VX, s.VY, s.VZ,
		s.Roll, s.Pitch, s.Yaw,
		s.WRoll, s.WPitch, s.WYaw,
	}
}

// VecInto flattens the state into dst in the canonical 12-vector order
// without allocating. dst must have length 12.
func (s *State) VecInto(dst []float64) {
	_ = dst[11]
	dst[0], dst[1], dst[2] = s.X, s.Y, s.Z
	dst[3], dst[4], dst[5] = s.VX, s.VY, s.VZ
	dst[6], dst[7], dst[8] = s.Roll, s.Pitch, s.Yaw
	dst[9], dst[10], dst[11] = s.WRoll, s.WPitch, s.WYaw
}

// StateFromVec rebuilds a State from the canonical 12-vector order.
func StateFromVec(v []float64) State {
	var s State
	s.SetVec(v)
	return s
}

// SetVec overwrites the state from the canonical 12-vector order; v must
// have length 12.
func (s *State) SetVec(v []float64) {
	_ = v[11]
	s.X, s.Y, s.Z = v[0], v[1], v[2]
	s.VX, s.VY, s.VZ = v[3], v[4], v[5]
	s.Roll, s.Pitch, s.Yaw = v[6], v[7], v[8]
	s.WRoll, s.WPitch, s.WYaw = v[9], v[10], v[11]
}

// Speed returns the magnitude of the translational velocity.
func (s State) Speed() float64 {
	return math.Sqrt(s.VX*s.VX + s.VY*s.VY + s.VZ*s.VZ)
}

// HorizontalDistanceTo returns the ground-plane distance to (x, y).
func (s State) HorizontalDistanceTo(x, y float64) float64 {
	dx, dy := s.X-x, s.Y-y
	return math.Sqrt(dx*dx + dy*dy)
}

// Input is the actuation command for either vehicle class.
//
// For a quadcopter it is the Appendix A.2 control vector: total thrust U_t
// (N) and the three rotor moment commands U_φ, U_θ, U_ψ (N·m).
//
// For a rover, Thrust carries the longitudinal acceleration command a
// (m/s²) and MYaw carries the steering angle δ (rad); the other fields
// are unused.
type Input struct {
	Thrust              float64
	MRoll, MPitch, MYaw float64
}

// Vec flattens the input into the canonical 4-vector [Ut Uφ Uθ Uψ].
func (u Input) Vec() []float64 {
	return []float64{u.Thrust, u.MRoll, u.MPitch, u.MYaw}
}

// Wind is the instantaneous wind velocity in the world frame.
type Wind struct {
	VX, VY, VZ float64
}

// Speed returns the wind speed magnitude.
func (w Wind) Speed() float64 {
	return math.Sqrt(w.VX*w.VX + w.VY*w.VY + w.VZ*w.VZ)
}
