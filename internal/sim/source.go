package sim

import (
	"math/rand"

	"repro/internal/attack"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// SourceConfig describes a simulator sensor source: the synthesizer half
// of the sensor-ingestion seam, extracted from the mission loop.
type SourceConfig struct {
	// Profile sets the sensor rates and noise floors.
	Profile vehicle.Profile
	// Seed is the mission seed; the suite's noise rng is derived from it
	// exactly as RunContext derives it, so an externally constructed
	// SimSource is bit-identical to the one RunContext builds internally
	// for the same Config.Seed.
	Seed int64
	// Attacks is the SDA schedule the source bakes into its measurements;
	// nil means attack-free.
	Attacks *attack.Schedule
	// DropoutAt / DropoutSensors inject a sensor failure at the given
	// mission time (zero disables): the listed sensors fail, nil for none.
	DropoutAt      float64
	DropoutSensors []sensors.Type
}

// SimSource synthesizes sensor readings from simulated physics: the
// multi-rate noisy suite, SDA bias injection gated on emitter range, and
// failure (dropout) injection — the mission loop's former inline
// synthesis refactored behind the sensors.Source seam, bit-exact with the
// pre-seam output.
type SimSource struct {
	suite   *sensors.Suite
	attacks *attack.Schedule

	dropoutAt      float64
	dropoutSensors sensors.TypeSet
	dropoutArmed   bool
}

// NewSimSource builds a simulator source. Wrap it in a source.Recorder to
// capture the mission as an on-disk trace.
func NewSimSource(c SourceConfig) *SimSource {
	rng := rand.New(rand.NewSource(c.Seed))
	return newSimSource(c.Profile, rng.Int63(), c.Attacks, c.DropoutAt, c.DropoutSensors)
}

// newSimSource is the seeded core shared with RunContext: suiteSeed is
// the first Int63 draw of the mission's master rng.
func newSimSource(p vehicle.Profile, suiteSeed int64, attacks *attack.Schedule, dropoutAt float64, dropoutSensors []sensors.Type) *SimSource {
	failed := sensors.NewTypeSet(dropoutSensors...)
	return &SimSource{
		suite:          sensors.NewSuite(p, rand.New(rand.NewSource(suiteSeed))),
		attacks:        attacks,
		dropoutAt:      dropoutAt,
		dropoutSensors: failed,
		dropoutArmed:   dropoutAt > 0 && failed != 0,
	}
}

// Sample synthesizes the frame at tick.T: arm any scheduled dropout,
// gate the SDA bias on the emitters' physical range at the vehicle's true
// position (Table 2), and advance the multi-rate suite.
func (s *SimSource) Sample(tick sensors.Tick) (sensors.Reading, error) {
	if s.dropoutArmed && tick.T >= s.dropoutAt {
		s.suite.SetDropout(s.dropoutSensors)
		s.dropoutArmed = false
	}
	var rd sensors.Reading
	var bias sensors.Bias
	if s.attacks != nil {
		// The injection reaches the sensors only while the vehicle is
		// physically inside the emitters' range (Table 2).
		bias = s.attacks.BiasAtPos(tick.T, tick.Truth.X, tick.Truth.Y)
		rd.AttackActive = s.attacks.InRangeAt(tick.T, tick.Truth.X, tick.Truth.Y)
		rd.AttackTargets = bias.Targets()
	}
	rd.State = s.suite.Sample(tick.T, tick.DT, tick.Truth, tick.TruthAccel, bias)
	return rd, nil
}

// AttackMounted reports whether the source carries an SDA schedule.
func (s *SimSource) AttackMounted() bool { return s.attacks != nil }
