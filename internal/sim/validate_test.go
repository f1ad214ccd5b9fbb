package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/sensors"
)

func TestValidateAcceptsDefaults(t *testing.T) {
	// The zero values that select documented defaults must pass.
	cfg := baseCfg(0, 1)
	cfg.DT, cfg.MaxSec, cfg.WindowSec = 0, 0, 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("defaulted config rejected: %v", err)
	}
}

func TestValidateNamesTheField(t *testing.T) {
	for _, tt := range []struct {
		field  string
		mutate func(*Config)
	}{
		{"Profile", func(c *Config) { *c = Config{} }},
		{"DT", func(c *Config) { c.DT = -0.01 }},
		{"DT", func(c *Config) { c.DT = math.NaN() }},
		{"DT", func(c *Config) { c.DT = math.Inf(1) }},
		{"MaxSec", func(c *Config) { c.MaxSec = -1 }},
		{"WindowSec", func(c *Config) { c.WindowSec = math.NaN() }},
		{"TraceEvery", func(c *Config) { c.TraceEvery = -5 }},
		{"DropoutAt", func(c *Config) { c.DropoutAt = -2 }},
		{"Attacks", func(c *Config) {
			c.Source = NewSimSource(SourceConfig{Profile: c.Profile, Seed: c.Seed})
			c.Attacks = attack.NewSchedule()
		}},
		{"DropoutAt", func(c *Config) {
			c.Source = NewSimSource(SourceConfig{Profile: c.Profile, Seed: c.Seed})
			c.DropoutAt, c.DropoutSensors = 10, []sensors.Type{sensors.GPS}
		}},
	} {
		cfg := baseCfg(0, 1)
		tt.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", tt.field)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error type %T, want *ConfigError", tt.field, err)
			continue
		}
		if ce.Field != tt.field {
			t.Errorf("got Config.%s, want Config.%s (%v)", ce.Field, tt.field, err)
		}
		if !strings.Contains(err.Error(), "Config."+tt.field) {
			t.Errorf("message %q does not name the field", err)
		}
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := baseCfg(0, 1)
	cfg.DT = -1
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted an invalid config")
	}
}
