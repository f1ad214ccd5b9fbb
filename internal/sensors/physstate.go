package sensors

import (
	"math"
	"strconv"

	"repro/internal/vehicle"
)

// PhysState is the physical-state vector PS of Eq. 1 (plus the barometric
// altitude channel). It is the unit of checkpointing, diagnosis, and
// reconstruction.
type PhysState [NumStates]float64

// At returns the state value at index i.
func (p PhysState) At(i StateIndex) float64 { return p[i] }

// Set assigns the state value at index i (a value receiver would mutate
// a copy, so this is a pointer method).
func (p *PhysState) Set(i StateIndex, v float64) { p[i] = v }

// String renders the vector as "name=value" pairs in canonical PS order,
// for debugging and trace dumps. It formats with strconv rather than fmt
// so nothing here can drag fmt's boxing into the hotalloc set.
func (p PhysState) String() string {
	buf := make([]byte, 0, 16*int(NumStates))
	buf = append(buf, '[')
	for i := range p {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, stateNames[i]...)
		buf = append(buf, '=')
		buf = strconv.AppendFloat(buf, p[i], 'g', 6, 64)
	}
	buf = append(buf, ']')
	return string(buf)
}

// Sub returns the element-wise difference p − q.
func (p PhysState) Sub(q PhysState) PhysState {
	var out PhysState
	for i := range p {
		out[i] = p[i] - q[i]
	}
	return out
}

// AbsDiff returns |p − q| element-wise, with angular channels compared on
// the circle so a wraparound from +π to −π does not register as a 2π jump.
// It is the value form of AbsDiffInto.
func (p PhysState) AbsDiff(q PhysState) PhysState {
	var out PhysState
	AbsDiffInto(&out, &p, &q)
	return out
}

// AbsDiffInto writes |p − q| into *dst, as AbsDiff does; dst may alias p
// or q.
func AbsDiffInto(dst, p, q *PhysState) {
	for i := range p {
		idx := StateIndex(i)
		d := p[i] - q[i]
		if isAngular(idx) {
			d = vehicle.WrapAngle(d)
		}
		dst[i] = math.Abs(d)
	}
}

// IsFinite reports whether every channel is finite.
func (p PhysState) IsFinite() bool {
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func isAngular(i StateIndex) bool {
	return i == SRoll || i == SPitch || i == SYaw
}

// TruePhysState derives the ground-truth PS vector from the simulator's
// true vehicle state, true acceleration, and the true magnetic field
// observation. It is what an oracle with perfect sensors would report, and
// anchors TP/FP accounting in the experiments.
func TruePhysState(s vehicle.State, accel [3]float64, field [3]float64) PhysState {
	var p PhysState
	TruePhysStateInto(&p, &s, accel, field)
	return p
}

// TruePhysStateInto writes TruePhysState into *dst.
func TruePhysStateInto(dst *PhysState, s *vehicle.State, accel [3]float64, field [3]float64) {
	dst[SX], dst[SY], dst[SZ] = s.X, s.Y, s.Z
	dst[SVX], dst[SVY], dst[SVZ] = s.VX, s.VY, s.VZ
	dst[SAX], dst[SAY], dst[SAZ] = accel[0], accel[1], accel[2]
	dst[SRoll], dst[SPitch], dst[SYaw] = s.Roll, s.Pitch, s.Yaw
	dst[SWRoll], dst[SWPitch], dst[SWYaw] = s.WRoll, s.WPitch, s.WYaw
	dst[SMagX], dst[SMagY], dst[SMagZ] = field[0], field[1], field[2]
	dst[SBaroAlt] = s.Z
}

// VehicleState projects the PS vector back onto the 12-dimensional
// rigid-body state used by controllers (acceleration, magnetometer, and
// barometer channels are not part of the rigid-body state).
func (p PhysState) VehicleState() vehicle.State {
	return vehicle.State{
		X: p[SX], Y: p[SY], Z: p[SZ],
		VX: p[SVX], VY: p[SVY], VZ: p[SVZ],
		Roll: p[SRoll], Pitch: p[SPitch], Yaw: p[SYaw],
		WRoll: p[SWRoll], WPitch: p[SWPitch], WYaw: p[SWYaw],
	}
}

// MergeStates returns a PS vector that takes the channels belonging to
// sensors in replace from src, and all other channels from base. It is the
// selective-combination primitive of state reconstruction (§4.3):
// X'(t_a) = [x_c(t_a), x_r(t_a)].
func MergeStates(base, src PhysState, replace TypeSet) PhysState {
	out := base
	for _, t := range AllTypes() {
		if !replace.Has(t) {
			continue
		}
		for _, idx := range StatesOf(t) {
			out[idx] = src[idx]
		}
	}
	return out
}
