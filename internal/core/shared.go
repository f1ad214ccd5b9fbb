package core

import (
	"fmt"
	"math"

	"repro/internal/ekf"
	"repro/internal/recovery"
	"repro/internal/vehicle"
)

// Shared bundles the read-only per-mission setup that is a pure function
// of (vehicle profile, control period): the quad recovery LQR gain (a
// DARE solve) and the EKF covariance/gain schedule. The engine seam
// attaches one process-wide Shared per (profile, dt) key to every
// mission via Config.Shared (internal/fleet's SharedFor registry); each
// pipeline then references the caches instead of recomputing them. All
// contents are immutable after construction (the EKF schedule extends
// itself lazily behind its own synchronization), so one Shared is safe
// for any number of concurrent missions.
type Shared struct {
	profile vehicle.ProfileName
	dtBits  uint64

	lqrQuad *[4][12]float64 // hover LQR gain; nil for rovers
	ekf     *ekf.Schedule
}

// NewShared builds the shared caches for one (profile, dt) pair.
func NewShared(p vehicle.Profile, dt float64) (*Shared, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("core shared: non-positive control period %v", dt)
	}
	k, err := recovery.QuadGain(p, dt)
	if err != nil {
		return nil, fmt.Errorf("core shared: %w", err)
	}
	return &Shared{
		profile: p.Name,
		dtBits:  math.Float64bits(dt),
		lqrQuad: k,
		ekf:     ekf.NewSchedule(p, dt),
	}, nil
}

// Matches reports whether the caches were built for exactly this
// (profile, dt) pair. The dt comparison is bitwise: any other value
// walks a different covariance trajectory.
func (s *Shared) Matches(name vehicle.ProfileName, dt float64) bool {
	return s != nil && s.profile == name && s.dtBits == math.Float64bits(dt)
}
