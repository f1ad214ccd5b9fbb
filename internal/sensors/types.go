// Package sensors models the RV's five heterogeneous sensor types (GPS,
// gyroscope, accelerometer, magnetometer, barometer), the physical-state
// vector PS of Eq. 1, and the Table 1 state→sensor mapping that attack
// diagnosis relies on to attribute anomalous physical states to
// compromised sensors.
package sensors

import (
	"fmt"
	"math/bits"
)

// Type identifies one of the five sensor types of Table 1.
type Type int

// The five sensor types.
const (
	GPS Type = iota + 1
	Gyro
	Accel
	Mag
	Baro
)

// NumTypes is the number of sensor types.
const NumTypes = 5

// AllTypes returns every sensor type in canonical order.
func AllTypes() []Type {
	return []Type{GPS, Gyro, Accel, Mag, Baro}
}

// String returns the sensor-type name.
func (t Type) String() string {
	switch t {
	case GPS:
		return "GPS"
	case Gyro:
		return "gyroscope"
	case Accel:
		return "accelerometer"
	case Mag:
		return "magnetometer"
	case Baro:
		return "barometer"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// StateIndex indexes the physical-state vector PS (Eq. 1 of the paper),
// extended with a dedicated barometric-altitude channel so the barometer's
// altitude estimate is attributable separately from the GPS z estimate
// (Table 3 lists a distinct δ for "Alt").
type StateIndex int

// Physical states. Order matters: it is the canonical PS layout used by
// checkpointing and reconstruction.
const (
	SX       StateIndex = iota // x position (GPS)
	SY                         // y position (GPS)
	SZ                         // z position (GPS)
	SVX                        // ẋ velocity (GPS)
	SVY                        // ẏ velocity (GPS)
	SVZ                        // ż velocity (GPS)
	SAX                        // ẍ acceleration (accelerometer)
	SAY                        // ÿ acceleration (accelerometer)
	SAZ                        // z̈ acceleration (accelerometer)
	SRoll                      // φ roll (gyroscope)
	SPitch                     // θ pitch (gyroscope)
	SYaw                       // ψ yaw (gyroscope)
	SWRoll                     // ωφ roll rate (gyroscope)
	SWPitch                    // ωθ pitch rate (gyroscope)
	SWYaw                      // ωψ yaw rate (gyroscope)
	SMagX                      // x_m magnetic field (magnetometer)
	SMagY                      // y_m magnetic field (magnetometer)
	SMagZ                      // z_m magnetic field (magnetometer)
	SBaroAlt                   // barometric altitude (barometer)

	// NumStates is the length of the PS vector.
	NumStates
)

var stateNames = [NumStates]string{
	"x", "y", "z", "vx", "vy", "vz", "ax", "ay", "az",
	"roll", "pitch", "yaw", "wroll", "wpitch", "wyaw",
	"mx", "my", "mz", "alt",
}

// String returns the short state name used in tables and traces.
func (i StateIndex) String() string {
	if i < 0 || i >= NumStates {
		return fmt.Sprintf("StateIndex(%d)", int(i))
	}
	return stateNames[i]
}

// AllStates returns every state index in canonical PS order.
func AllStates() []StateIndex {
	out := make([]StateIndex, NumStates)
	for i := range out {
		out[i] = StateIndex(i)
	}
	return out
}

// StatesOf returns the physical states derived from sensor type t — the
// Table 1 mapping.
func StatesOf(t Type) []StateIndex {
	switch t {
	case GPS:
		return []StateIndex{SX, SY, SZ, SVX, SVY, SVZ}
	case Gyro:
		return []StateIndex{SRoll, SPitch, SYaw, SWRoll, SWPitch, SWYaw}
	case Accel:
		return []StateIndex{SAX, SAY, SAZ}
	case Mag:
		return []StateIndex{SMagX, SMagY, SMagZ}
	case Baro:
		return []StateIndex{SBaroAlt}
	default:
		return nil
	}
}

// SensorOf returns the sensor type that sources state i (the inverse of
// the Table 1 mapping).
func SensorOf(i StateIndex) Type {
	switch {
	case i >= SX && i <= SVZ:
		return GPS
	case i >= SAX && i <= SAZ:
		return Accel
	case i >= SRoll && i <= SWYaw:
		return Gyro
	case i >= SMagX && i <= SMagZ:
		return Mag
	case i == SBaroAlt:
		return Baro
	default:
		return 0
	}
}

// TypeSet is a set of sensor types, used to describe which sensors an SDA
// targets, which a diagnosis flags, and which the fusion trusts: one bit
// per Type, GPS in bit 0. It is a value, so a copy is an independent set,
// == compares membership, and the zero value is the empty set. A type
// outside GPS…Baro has no bit: adding it adds nothing.
type TypeSet uint8

// All is the set of every sensor type.
const All TypeSet = 1<<NumTypes - 1

// NewTypeSet builds a set from the listed types.
func NewTypeSet(types ...Type) TypeSet {
	var s TypeSet
	for _, t := range types {
		s.Add(t)
	}
	return s
}

// bit returns t's member bit, or 0 for a type outside GPS…Baro.
func bit(t Type) TypeSet {
	if t < GPS || t > Baro {
		return 0
	}
	return 1 << uint(t-GPS)
}

// Has reports membership.
func (s TypeSet) Has(t Type) bool { return s&bit(t) != 0 }

// Add inserts t.
func (s *TypeSet) Add(t Type) { *s |= bit(t) }

// Remove deletes t.
func (s *TypeSet) Remove(t Type) { *s &^= bit(t) }

// Len returns the number of members.
func (s TypeSet) Len() int { return bits.OnesCount8(uint8(s)) }

// List returns the members in canonical order.
func (s TypeSet) List() []Type {
	out := make([]Type, 0, s.Len())
	for _, t := range AllTypes() {
		if s.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// String renders the set for traces, e.g. "{GPS, gyroscope}".
func (s TypeSet) String() string {
	list := s.List()
	out := "{"
	for i, t := range list {
		if i > 0 {
			out += ", "
		}
		out += t.String()
	}
	return out + "}"
}
