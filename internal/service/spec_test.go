package service

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/trace"
)

func TestParseStrategy(t *testing.T) {
	tests := []struct {
		give    string
		want    core.Strategy
		wantErr bool
	}{
		{give: "DeLorean", want: core.StrategyDeLorean},
		{give: "delorean", want: core.StrategyDeLorean},
		{give: "LQR-O", want: core.StrategyLQRO},
		{give: "lqro", want: core.StrategyLQRO},
		{give: "none", want: core.StrategyNone},
		{give: "SSR", want: core.StrategySSR},
		{give: "PID-Piper", want: core.StrategyPIDPiper},
		{give: "bogus", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseStrategy(tt.give)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseStrategy(%q) err = %v", tt.give, err)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseStrategy(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestParsePath(t *testing.T) {
	tests := []struct {
		give    string
		want    mission.PathKind
		wantErr bool
	}{
		{give: "S", want: mission.Straight},
		{give: "mw", want: mission.MultiWaypoint},
		{give: "C", want: mission.Circular},
		{give: "p1", want: mission.Polygon1},
		{give: "P2", want: mission.Polygon2},
		{give: "P3", want: mission.Polygon3},
		{give: "Z", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParsePath(tt.give)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParsePath(%q) err = %v", tt.give, err)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParsePath(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestParseTargets(t *testing.T) {
	got, err := ParseTargets("GPS, gyro,accelerometer")
	if err != nil {
		t.Fatal(err)
	}
	want := sensors.NewTypeSet(sensors.GPS, sensors.Gyro, sensors.Accel)
	if got != want {
		t.Errorf("ParseTargets = %v, want %v", got, want)
	}
	if _, err := ParseTargets("lidar"); err == nil {
		t.Error("expected error for unknown sensor")
	}
}

func TestParseStealthyMode(t *testing.T) {
	tests := []struct {
		give    string
		want    attack.Mode
		wantErr bool
	}{
		{give: "random", want: attack.RandomBias},
		{give: "Gradual", want: attack.Gradual},
		{give: "intermittent", want: attack.Intermittent},
		{give: "persistent", wantErr: true},
	}
	for _, tt := range tests {
		got, err := ParseStealthyMode(tt.give)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseStealthyMode(%q) err = %v", tt.give, err)
			continue
		}
		if !tt.wantErr && got != tt.want {
			t.Errorf("ParseStealthyMode(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

// TestSpecBuildDefaults: a minimal spec resolves the documented defaults
// and yields a validated config with the CLI's fixed wiring constants.
func TestSpecBuildDefaults(t *testing.T) {
	m, err := MissionSpec{Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.RV != "ArduCopter" || m.Spec.Defense != "DeLorean" || m.Spec.Path != "S" {
		t.Errorf("defaults not applied: %+v", m.Spec)
	}
	if m.Spec.MaxSec <= 299 || m.Spec.MaxSec >= 301 {
		t.Errorf("MaxSec default = %v, want 300", m.Spec.MaxSec)
	}
	if m.Cfg.WindowSec != 15 || m.Cfg.TraceEvery != 100 {
		t.Errorf("wiring constants wrong: WindowSec=%v TraceEvery=%v", m.Cfg.WindowSec, m.Cfg.TraceEvery)
	}
	if m.SDA != nil || m.Cfg.Attacks != nil {
		t.Error("attack-free spec built an attack schedule")
	}
}

// TestSpecBuildDeterministic: the same spec builds the same mission seed
// (the master-rng draw order is fixed), and specs with attacks mount a
// schedule.
func TestSpecBuildDeterministic(t *testing.T) {
	spec := MissionSpec{Attack: "GPS,gyroscope", AttackStart: 12, AttackDur: 10, Seed: 7, MaxSec: 45}
	a, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.Cfg.Seed != b.Cfg.Seed {
		t.Errorf("mission seed differs across builds: %d vs %d", a.Cfg.Seed, b.Cfg.Seed)
	}
	if a.SDA == nil || a.Cfg.Attacks == nil {
		t.Error("attack spec built no schedule")
	}
}

// TestHeaderRoundTrip: a spec stamped into a trace header reconstructs
// identically (the record→replay identity contract).
func TestHeaderRoundTrip(t *testing.T) {
	spec := MissionSpec{
		RV: "Tarot", Defense: "SSR", Path: "P2",
		Attack: "GPS", AttackStart: 12, AttackDur: 10,
		Stealthy: "gradual", Wind: 2.5, Seed: 99, MaxSec: 45,
	}
	h := trace.Header{Meta: spec.HeaderMeta()}
	got, err := SpecFromHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Errorf("header round trip:\n got %+v\nwant %+v", got, spec)
	}
}

func TestSpecFromHeaderRejectsIncomplete(t *testing.T) {
	if _, err := SpecFromHeader(trace.Header{}); err == nil {
		t.Error("expected error for header without mission parameters")
	}
}
