// Package wind models environmental wind as an Ornstein–Uhlenbeck gust
// process around a configurable mean flow. The paper's evaluation
// simulates wind between 0–10 m/s for the mission mix (§5) and a fixed
// ~15 km/h (≈4.2 m/s) condition to provoke detector false alarms for the
// diagnosis-FP experiment (§6.1).
package wind

import (
	"math"
	"math/rand"

	"repro/internal/floats"
	"repro/internal/vehicle"
)

// Model generates a temporally correlated wind field. The zero value is a
// dead calm.
type Model struct {
	// MeanSpeed is the average wind speed in m/s.
	MeanSpeed float64
	// Direction is the mean flow heading in radians (world frame).
	Direction float64
	// GustStdev is the standard deviation of the gust fluctuation, m/s.
	GustStdev float64
	// Tau is the gust correlation time constant in seconds.
	Tau float64

	rng   *rand.Rand
	gustX float64
	gustY float64
	gustZ float64
}

// New returns a wind model with mean speed (m/s), heading (rad), gust
// stdev (m/s), and deterministic source rng. Tau defaults to 2 s.
func New(meanSpeed, direction, gustStdev float64, rng *rand.Rand) *Model {
	return &Model{
		MeanSpeed: meanSpeed,
		Direction: direction,
		GustStdev: gustStdev,
		Tau:       2,
		rng:       rng,
	}
}

// Step advances the gust process by dt seconds and returns the current
// wind vector.
func (m *Model) Step(dt float64) vehicle.Wind {
	if m.rng == nil || (floats.Zero(m.MeanSpeed) && floats.Zero(m.GustStdev)) {
		return vehicle.Wind{}
	}
	tau := m.Tau
	if tau <= 0 {
		tau = 2
	}
	// Exact OU discretization: x' = x·e^(−dt/τ) + σ·√(1−e^(−2dt/τ))·N(0,1).
	decay := math.Exp(-dt / tau)
	diff := m.GustStdev * math.Sqrt(1-decay*decay)
	m.gustX = m.gustX*decay + diff*m.rng.NormFloat64()
	m.gustY = m.gustY*decay + diff*m.rng.NormFloat64()
	m.gustZ = m.gustZ*decay + 0.3*diff*m.rng.NormFloat64()

	return vehicle.Wind{
		VX: m.MeanSpeed*math.Cos(m.Direction) + m.gustX,
		VY: m.MeanSpeed*math.Sin(m.Direction) + m.gustY,
		VZ: m.gustZ,
	}
}
