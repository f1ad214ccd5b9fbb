package sensors

import (
	"math"
	"math/rand"

	"repro/internal/floats"
	"repro/internal/vehicle"
)

// EarthField is the world-frame geomagnetic reference field in gauss
// (roughly mid-latitude: north component plus downward component).
var EarthField = [3]float64{0.22, 0.0, -0.42}

// Bias is the false data an SDA injects into the raw measurements of each
// sensor type (paper §5.3: "our attack code interfaces with the sensor
// libraries in the RV, and manipulates sensor measurements by adding a
// bias to them"). A zero Bias means no attack.
type Bias struct {
	// GPSPos offsets the reported position, metres per axis.
	GPSPos [3]float64
	// GPSVel offsets the reported velocity, m/s per axis.
	GPSVel [3]float64
	// Gyro offsets the reported angular rates, rad/s per axis. Because the
	// attitude estimate integrates gyro rates, a rate bias also corrupts
	// the Euler-angle states (Table 1).
	Gyro [3]float64
	// Accel offsets the reported acceleration, m/s² per axis.
	Accel [3]float64
	// MagYaw rotates the measured magnetic field about the vertical axis,
	// radians (the paper's 180° heading-flip attack).
	MagYaw float64
	// Baro offsets the reported barometric altitude, metres.
	Baro float64
}

// IsZero reports whether the bias injects nothing.
func (b Bias) IsZero() bool {
	return b == Bias{}
}

// Targets returns the sensor types that carry a non-zero injection.
func (b *Bias) Targets() TypeSet {
	var s TypeSet
	if b.GPSPos != [3]float64{} || b.GPSVel != [3]float64{} {
		s.Add(GPS)
	}
	if b.Gyro != [3]float64{} {
		s.Add(Gyro)
	}
	if b.Accel != [3]float64{} {
		s.Add(Accel)
	}
	if !floats.Zero(b.MagYaw) {
		s.Add(Mag)
	}
	if !floats.Zero(b.Baro) {
		s.Add(Baro)
	}
	return s
}

// Scale returns the bias multiplied by f on every channel. Used by
// stealthy attacks that ramp or modulate their injection.
func (b Bias) Scale(f float64) Bias {
	var out Bias
	for i := 0; i < 3; i++ {
		out.GPSPos[i] = f * b.GPSPos[i]
		out.GPSVel[i] = f * b.GPSVel[i]
		out.Gyro[i] = f * b.Gyro[i]
		out.Accel[i] = f * b.Accel[i]
	}
	out.MagYaw = f * b.MagYaw
	out.Baro = f * b.Baro
	return out
}

// Suite simulates the RV's onboard sensor stack: each sensor type samples
// at its profile rate, holds its last value between samples, carries
// Gaussian measurement noise, and is subject to SDA bias injection. The
// gyroscope's Euler-angle states are produced by integrating the (possibly
// biased) rate measurements, as onboard attitude estimation does.
type Suite struct {
	profile vehicle.Profile
	rng     *rand.Rand

	initialized bool
	est         PhysState

	lastGPS, lastGyro, lastAccel, lastMag, lastBaro float64

	// Gyro-integrated attitude (drifts with noise; corrupted by rate bias).
	attRoll, attPitch, attYaw float64

	// dropout marks failed sensors: they stop refreshing and hold their
	// last value (failure injection for robustness tests).
	dropout TypeSet
}

// NewSuite returns a sensor suite for the given vehicle profile, drawing
// measurement noise from rng.
func NewSuite(p vehicle.Profile, rng *rand.Rand) *Suite {
	return &Suite{profile: p, rng: rng}
}

// Profile returns the suite's vehicle profile.
func (s *Suite) Profile() vehicle.Profile { return s.profile }

// SetDropout marks the given sensor types as failed: from now on they
// hold their last value instead of refreshing. Pass an empty set to
// restore all sensors.
func (s *Suite) SetDropout(failed TypeSet) {
	s.dropout = failed
}

// due reports whether a sensor with the given rate should refresh at time
// t given its last refresh time.
func due(t, last, rate float64) bool {
	if rate <= 0 {
		return false
	}
	return t-last >= 1/rate-1e-9
}

// Sample advances the suite to time t: due sensors take fresh (noisy,
// possibly biased) measurements of the true vehicle state; others hold.
// dt is the elapsed time since the previous call (used for gyro attitude
// integration). It returns the current sensor-derived PS estimate, which
// the suite owns: it stays valid until the next Sample.
func (s *Suite) Sample(t, dt float64, truth *vehicle.State, trueAccel [3]float64, bias *Bias) *PhysState {
	p := &s.profile
	if !s.initialized {
		// Prime every channel at mission start (assumed attack-free zone).
		TruePhysStateInto(&s.est, truth, trueAccel, bodyField(truth.Yaw, 0))
		s.attRoll, s.attPitch, s.attYaw = truth.Roll, truth.Pitch, truth.Yaw
		s.lastGPS, s.lastGyro, s.lastAccel, s.lastMag, s.lastBaro = t, t, t, t, t
		s.initialized = true
		return &s.est
	}

	if due(t, s.lastGPS, p.Rates.GPS) && !s.dropout.Has(GPS) {
		s.lastGPS = t
		s.est[SX] = truth.X + bias.GPSPos[0] + s.noise(p.Noise.GPSPos)
		s.est[SY] = truth.Y + bias.GPSPos[1] + s.noise(p.Noise.GPSPos)
		s.est[SZ] = truth.Z + bias.GPSPos[2] + s.noise(p.Noise.GPSPos)
		s.est[SVX] = truth.VX + bias.GPSVel[0] + s.noise(p.Noise.GPSVel)
		s.est[SVY] = truth.VY + bias.GPSVel[1] + s.noise(p.Noise.GPSVel)
		s.est[SVZ] = truth.VZ + bias.GPSVel[2] + s.noise(p.Noise.GPSVel)
	}
	if due(t, s.lastGyro, p.Rates.Gyro) && !s.dropout.Has(Gyro) {
		s.lastGyro = t
		wr := truth.WRoll + bias.Gyro[0] + s.noise(p.Noise.Gyro)
		wp := truth.WPitch + bias.Gyro[1] + s.noise(p.Noise.Gyro)
		wy := truth.WYaw + bias.Gyro[2] + s.noise(p.Noise.Gyro)
		s.est[SWRoll], s.est[SWPitch], s.est[SWYaw] = wr, wp, wy
		// Attitude from rate integration with a complementary pull toward
		// the true attitude, standing in for the accelerometer
		// gravity-vector correction real autopilots apply (time constant
		// 2 s). A rate bias of the Table 2 magnitudes (≥ 0.5 rad/s)
		// overwhelms the pull and corrupts the angle states (the Table 1
		// attribution diagnosis depends on), while after the attack ends
		// the attitude re-converges within seconds, as real attitude
		// estimators do.
		const leak = 0.5
		s.attRoll = vehicle.WrapAngle(s.attRoll + wr*dt - leak*dt*vehicle.WrapAngle(s.attRoll-truth.Roll))
		s.attPitch = vehicle.WrapAngle(s.attPitch + wp*dt - leak*dt*vehicle.WrapAngle(s.attPitch-truth.Pitch))
		s.attYaw = vehicle.WrapAngle(s.attYaw + wy*dt - leak*dt*vehicle.WrapAngle(s.attYaw-truth.Yaw))
		s.est[SRoll], s.est[SPitch], s.est[SYaw] = s.attRoll, s.attPitch, s.attYaw
	}
	if due(t, s.lastAccel, p.Rates.Accel) && !s.dropout.Has(Accel) {
		s.lastAccel = t
		s.est[SAX] = trueAccel[0] + bias.Accel[0] + s.noise(p.Noise.Accel)
		s.est[SAY] = trueAccel[1] + bias.Accel[1] + s.noise(p.Noise.Accel)
		s.est[SAZ] = trueAccel[2] + bias.Accel[2] + s.noise(p.Noise.Accel)
	}
	if due(t, s.lastMag, p.Rates.Mag) && !s.dropout.Has(Mag) {
		s.lastMag = t
		f := bodyField(truth.Yaw, bias.MagYaw)
		s.est[SMagX] = f[0] + s.noise(p.Noise.Mag)
		s.est[SMagY] = f[1] + s.noise(p.Noise.Mag)
		s.est[SMagZ] = f[2] + s.noise(p.Noise.Mag)
	}
	if due(t, s.lastBaro, p.Rates.Baro) && !s.dropout.Has(Baro) {
		s.lastBaro = t
		s.est[SBaroAlt] = truth.Z + bias.Baro + s.noise(p.Noise.Baro)
	}
	return &s.est
}

// Estimate returns the current held PS estimate without advancing time.
func (s *Suite) Estimate() PhysState { return s.est }

func (s *Suite) noise(sigma float64) float64 {
	if floats.Zero(sigma) || s.rng == nil {
		return 0
	}
	return sigma * s.rng.NormFloat64()
}

// bodyField rotates the world geomagnetic field into the body frame for a
// vehicle at the given yaw (tilt compensation elided), applying the SDA's
// heading rotation attack if any.
func bodyField(yaw, attackYaw float64) [3]float64 {
	a := yaw + attackYaw
	c, sn := math.Cos(a), math.Sin(a)
	return [3]float64{
		c*EarthField[0] + sn*EarthField[1],
		-sn*EarthField[0] + c*EarthField[1],
		EarthField[2],
	}
}

// BodyField exposes the magnetometer observation model for tests and the
// EKF measurement function.
func BodyField(yaw float64) [3]float64 { return bodyField(yaw, 0) }
