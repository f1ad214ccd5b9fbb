// Package attack implements the Sensor Deception Attack (SDA) engine of
// §2.2/§5.3: software fault injection that adds bias to raw sensor
// measurements of any subset of the RV's sensor types, with the paper's
// Table 2 bias ranges, plus the stealthy attack modes of §6.5 (persistent,
// random, gradually increasing, and intermittent bias).
//
// The paper mounted its attacks exactly this way ("we emulated the attacks
// through targeted software modifications ... adding a bias to them"), so
// this package is a faithful reimplementation, not a substitution.
package attack

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sensors"
)

// Params holds the per-sensor bias ranges and attack range of Table 2.
type Params struct {
	// GPSBiasMin/Max bound the GPS position bias, metres (5–50 m: the
	// receiver's maximum plausible hop per update).
	GPSBiasMin, GPSBiasMax float64
	// GyroBiasMin/Max bound the gyroscope rate bias, rad/s.
	GyroBiasMin, GyroBiasMax float64
	// AccelBiasMin/Max bound the accelerometer bias, m/s².
	AccelBiasMin, AccelBiasMax float64
	// MagYaw is the heading-rotation injection, radians (paper: 180°).
	MagYaw float64
	// BaroBias is the barometric altitude bias, metres (paper: 0.1 kPa,
	// ≈ 8.3 m of altitude at sea level).
	BaroBias float64
	// RangeM is the assumed emitter range, metres (paper: 200 m, the GPS
	// spoofer's reach, assumed for every sensor as a strong adversary).
	RangeM float64
}

// DefaultParams returns the Table 2 attack parameters.
func DefaultParams() Params {
	return Params{
		GPSBiasMin: 5, GPSBiasMax: 50,
		GyroBiasMin: 0.5, GyroBiasMax: 9.47,
		AccelBiasMin: 0.5, AccelBiasMax: 6.2,
		MagYaw:   math.Pi,
		BaroBias: 8.3,
		RangeM:   200,
	}
}

// Mode selects the temporal shape of the injected bias.
type Mode int

// Attack modes. Persistent is the standard SDA; the other three are the
// adaptive stealthy variants of §6.5.
const (
	Persistent   Mode = iota + 1
	RandomBias        // A1: random per-tick modulation of the bias
	Gradual           // A2: bias ramps up over the attack window
	Intermittent      // A3: bias toggles on/off with a duty cycle
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Persistent:
		return "persistent"
	case RandomBias:
		return "random"
	case Gradual:
		return "gradual"
	case Intermittent:
		return "intermittent"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// SDA is one sensor deception attack instance: a target sensor set, a time
// window, a temporal mode, and the drawn base bias.
type SDA struct {
	Targets    sensors.TypeSet
	Start, End float64
	Mode       Mode

	base sensors.Bias
	rng  *rand.Rand

	// Intermittent duty cycle: on for OnDur, off for OffDur, repeating.
	OnDur, OffDur float64
	// RampDur is the Gradual mode's ramp duration; defaults to the full
	// attack window.
	RampDur float64

	// emitter optionally bounds the attack's physical reach (see
	// WithEmitter).
	emitter *Emitter
}

// New draws a persistent SDA against the given targets over [start, end)
// with bias magnitudes drawn uniformly from the Table 2 ranges (random
// sign per axis), using rng for all draws.
func New(rng *rand.Rand, p Params, targets sensors.TypeSet, start, end float64) *SDA {
	a := &SDA{
		Targets: targets,
		Start:   start,
		End:     end,
		Mode:    Persistent,
		rng:     rng,
	}
	a.base = drawBias(rng, p, targets)
	return a
}

// NewWithBias builds an SDA with an explicit bias (used by stealthy
// attacks, which inject controlled sub-threshold bias) and mode.
func NewWithBias(rng *rand.Rand, bias sensors.Bias, start, end float64, mode Mode) *SDA {
	return &SDA{
		Targets: bias.Targets(),
		Start:   start,
		End:     end,
		Mode:    mode,
		base:    bias,
		rng:     rng,
		OnDur:   1.0,
		OffDur:  1.0,
	}
}

// Base returns the attack's base bias (the full injection at scale 1).
func (a *SDA) Base() sensors.Bias { return a.base }

// ActiveAt reports whether the attack window covers time t.
func (a *SDA) ActiveAt(t float64) bool {
	return t >= a.Start && t < a.End
}

// BiasAt returns the injected bias at time t; zero outside the window.
func (a *SDA) BiasAt(t float64) sensors.Bias {
	if !a.ActiveAt(t) {
		return sensors.Bias{}
	}
	switch a.Mode {
	case Persistent:
		return a.base
	case RandomBias:
		// A1: random fraction of the base each tick.
		return a.base.Scale(a.rng.Float64())
	case Gradual:
		// A2: linear ramp from 0 to the full bias over RampDur.
		ramp := a.RampDur
		if ramp <= 0 {
			ramp = a.End - a.Start
		}
		f := (t - a.Start) / ramp
		if f > 1 {
			f = 1
		}
		return a.base.Scale(f)
	case Intermittent:
		// A3: on/off duty cycle.
		period := a.OnDur + a.OffDur
		if period <= 0 {
			return a.base
		}
		phase := math.Mod(t-a.Start, period)
		if phase < a.OnDur {
			return a.base
		}
		return sensors.Bias{}
	default:
		return a.base
	}
}

func drawBias(rng *rand.Rand, p Params, targets sensors.TypeSet) sensors.Bias {
	var b sensors.Bias
	sign := func() float64 {
		if rng.Float64() < 0.5 {
			return -1
		}
		return 1
	}
	uniform := func(lo, hi float64) float64 {
		return lo + rng.Float64()*(hi-lo)
	}
	if targets.Has(sensors.GPS) {
		for i := 0; i < 3; i++ {
			b.GPSPos[i] = sign() * uniform(p.GPSBiasMin, p.GPSBiasMax)
		}
		// A hopping receiver also reports inconsistent velocity; keep the
		// induced velocity bias modest relative to the position hop.
		for i := 0; i < 3; i++ {
			b.GPSVel[i] = sign() * uniform(0.2, 2.0)
		}
	}
	if targets.Has(sensors.Gyro) {
		for i := 0; i < 3; i++ {
			b.Gyro[i] = sign() * uniform(p.GyroBiasMin, p.GyroBiasMax)
		}
	}
	if targets.Has(sensors.Accel) {
		for i := 0; i < 3; i++ {
			b.Accel[i] = sign() * uniform(p.AccelBiasMin, p.AccelBiasMax)
		}
	}
	if targets.Has(sensors.Mag) {
		b.MagYaw = sign() * p.MagYaw
	}
	if targets.Has(sensors.Baro) {
		b.Baro = sign() * p.BaroBias
	}
	return b
}

// Schedule composes multiple SDAs over a mission (e.g. Fig. 2's two attack
// instances). Overlapping attacks sum their biases channel-wise.
type Schedule struct {
	Attacks []*SDA
}

// NewSchedule builds a schedule from the given attacks.
func NewSchedule(attacks ...*SDA) *Schedule {
	return &Schedule{Attacks: attacks}
}

// BiasAt returns the total injected bias at time t.
func (s *Schedule) BiasAt(t float64) sensors.Bias {
	var total sensors.Bias
	for _, a := range s.Attacks {
		b := a.BiasAt(t)
		for i := 0; i < 3; i++ {
			total.GPSPos[i] += b.GPSPos[i]
			total.GPSVel[i] += b.GPSVel[i]
			total.Gyro[i] += b.Gyro[i]
			total.Accel[i] += b.Accel[i]
		}
		total.MagYaw += b.MagYaw
		total.Baro += b.Baro
	}
	return total
}

// ActiveAt reports whether any attack window covers t.
func (s *Schedule) ActiveAt(t float64) bool {
	for _, a := range s.Attacks {
		if a.ActiveAt(t) {
			return true
		}
	}
	return false
}

// Combinations returns every k-subset of the five sensor types, in a
// deterministic order. The experiments iterate these to mount SDAs
// "targeting any combination of sensors" (§2.2).
func Combinations(k int) []sensors.TypeSet {
	types := sensors.AllTypes()
	var out []sensors.TypeSet
	var rec func(start int, cur []sensors.Type)
	rec = func(start int, cur []sensors.Type) {
		if len(cur) == k {
			out = append(out, sensors.NewTypeSet(cur...))
			return
		}
		for i := start; i < len(types); i++ {
			rec(i+1, append(cur, types[i]))
		}
	}
	if k >= 0 && k <= len(types) {
		rec(0, nil)
	}
	return out
}

// RandomTargets draws a uniformly random k-subset of sensor types.
func RandomTargets(rng *rand.Rand, k int) sensors.TypeSet {
	combos := Combinations(k)
	if len(combos) == 0 {
		return sensors.NewTypeSet()
	}
	return combos[rng.Intn(len(combos))]
}
