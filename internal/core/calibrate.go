package core

import (
	"repro/internal/diagnosis"
	"repro/internal/sensors"
	"repro/internal/stat"
	"repro/internal/vehicle"
)

// floorFor returns the minimum δ per channel family. The floors encode
// the vehicle's *attack-reaction transient envelope*: between an SDA's
// onset and its isolation the controller reacts to corrupted estimates,
// so the true states move faster than anything an attack-free
// calibration run can observe. Thresholds below these floors would make
// diagnosis co-flag clean sensors during that transient (destroying the
// exact-identification rate); thresholds above them come from the
// calibration data as usual.
func floorFor(idx sensors.StateIndex) float64 {
	switch sensors.SensorOf(idx) {
	case sensors.GPS:
		if idx <= sensors.SZ {
			return 4.0 // position, m
		}
		return 2.5 // velocity, m/s
	case sensors.Accel:
		return 1.6 // m/s²
	case sensors.Gyro:
		if idx == sensors.SYaw {
			return 0.6 // rad
		}
		if idx <= sensors.SYaw {
			return 0.22 // roll/pitch, rad
		}
		return 0.3 // rates, rad/s
	case sensors.Mag:
		return 0.12 // gauss
	case sensors.Baro:
		return 2.5 // m
	default:
		return 0.1
	}
}

// CalibrateDelta derives the per-state diagnosis thresholds from
// attack-free error samples using the paper's §5.4 rule
//
//	δ_i = median(e_i) + k·stdev(e_i)
//
// (k = 3 in the paper; Fig. 8a). samples holds one error vector per
// calibration tick, collected by running attack-free missions and reading
// Pipeline.LastError.
func CalibrateDelta(samples []sensors.PhysState, k float64) diagnosis.Delta {
	var delta diagnosis.Delta
	if len(samples) == 0 {
		return delta
	}
	buf := make([]float64, len(samples))
	for _, idx := range sensors.AllStates() {
		for j, s := range samples {
			buf[j] = s[idx]
		}
		d := stat.OutlierThreshold(buf, k)
		// Fig. 8a's property is that the attack-free error ALWAYS stays
		// under δ; for heavy-tailed (gusty) error distributions the
		// median+kσ rule under-covers the tail, so δ also bounds the
		// observed maximum with a small margin.
		if m := 1.05 * stat.Quantile(buf, 1); m > d {
			d = m
		}
		if floor := floorFor(idx); d < floor {
			d = floor
		}
		delta[idx] = d
	}
	return delta
}

// DefaultDelta returns hand-tuned thresholds of Table 3 magnitude for use
// before calibration has run (tests, quickstart). Units follow the PS
// vector (m, m/s, m/s², rad, rad/s, gauss, m).
func DefaultDelta(p vehicle.Profile) diagnosis.Delta {
	var d diagnosis.Delta
	d[sensors.SX], d[sensors.SY], d[sensors.SZ] = 4, 4, 4
	d[sensors.SVX], d[sensors.SVY], d[sensors.SVZ] = 2.5, 2.5, 2.5
	d[sensors.SAX], d[sensors.SAY], d[sensors.SAZ] = 1.6, 1.6, 1.6
	d[sensors.SRoll], d[sensors.SPitch] = 0.22, 0.22
	d[sensors.SYaw] = 0.6
	d[sensors.SWRoll], d[sensors.SWPitch], d[sensors.SWYaw] = 0.3, 0.3, 0.3
	d[sensors.SMagX], d[sensors.SMagY], d[sensors.SMagZ] = 0.12, 0.12, 0.12
	d[sensors.SBaroAlt] = 2.5
	if !p.IsQuad() {
		// Rovers have no meaningful roll/pitch or vertical channels.
		d[sensors.SRoll], d[sensors.SPitch] = 0, 0
		d[sensors.SWRoll], d[sensors.SWPitch] = 0, 0
		d[sensors.SZ], d[sensors.SVZ], d[sensors.SAZ] = 0, 0, 0
	}
	return d
}
