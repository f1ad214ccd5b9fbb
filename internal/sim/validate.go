package sim

import (
	"math"

	"repro/internal/floats"
)

// ConfigError reports one invalid Config field. Errors name the field so
// callers assembling configs programmatically (the experiment registry,
// the mission service) can point at the offending knob.
type ConfigError struct {
	// Field is the Config field name, e.g. "DT".
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *ConfigError) Error() string {
	return "sim: invalid Config." + e.Field + ": " + e.Reason
}

// Validate checks the configuration for internal consistency before any
// defaulting: zero values that select documented defaults (DT, MaxSec,
// WindowSec, Delta) are valid, negative or non-finite knobs are not, and
// a mission driven by an external Source must not also carry the
// simulator-only synthesis settings (the source owns attack and failure
// injection). RunContext calls it first; it is exported so services can
// reject a bad mission request before committing a worker to it.
func (cfg Config) Validate() error {
	if cfg.Profile.Name == "" {
		return &ConfigError{Field: "Profile", Reason: "empty vehicle profile (use vehicle.LookupProfile)"}
	}
	if cfg.DT < 0 || math.IsNaN(cfg.DT) || math.IsInf(cfg.DT, 0) {
		return &ConfigError{Field: "DT", Reason: "control period must be positive (zero selects the 0.01 s default)"}
	}
	if cfg.MaxSec < 0 || math.IsNaN(cfg.MaxSec) {
		return &ConfigError{Field: "MaxSec", Reason: "mission time budget must be non-negative (zero selects the 240 s default)"}
	}
	if cfg.WindowSec < 0 || math.IsNaN(cfg.WindowSec) {
		return &ConfigError{Field: "WindowSec", Reason: "checkpoint window must be non-negative (zero selects the default)"}
	}
	if cfg.TraceEvery < 0 {
		return &ConfigError{Field: "TraceEvery", Reason: "trace decimation must be non-negative (zero disables tracing)"}
	}
	if cfg.DropoutAt < 0 || math.IsNaN(cfg.DropoutAt) {
		return &ConfigError{Field: "DropoutAt", Reason: "dropout time must be non-negative (zero disables failure injection)"}
	}
	if cfg.Shared != nil {
		dt := cfg.DT
		if floats.Zero(dt) {
			dt = 0.01 // the documented DT default
		}
		if !cfg.Shared.Matches(cfg.Profile.Name, dt) {
			return &ConfigError{Field: "Shared", Reason: "caches built for a different (profile, dt) pair than this mission"}
		}
	}
	if cfg.Source != nil {
		if cfg.Attacks != nil {
			return &ConfigError{Field: "Attacks", Reason: "conflicts with Source: an external source already carries its injections (bake the schedule into the source)"}
		}
		if cfg.DropoutAt > 0 || len(cfg.DropoutSensors) > 0 {
			return &ConfigError{Field: "DropoutAt", Reason: "conflicts with Source: failure injection is simulator-side (bake the dropout into the source)"}
		}
	}
	return nil
}
