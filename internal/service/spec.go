// Package service is the mission-service layer: it turns DeLorean from a
// batch evaluator into a long-running server. The package has two halves.
// The spec half (this file) is the transport-neutral mission
// parameterization — MissionSpec — shared by the delorean CLI and the
// HTTP API, so a mission submitted over the wire is built through exactly
// the same wiring (and the same master-rng draw order) as one launched
// from the command line, and the two produce byte-identical run reports.
// The server half (service.go, handlers.go) exposes the spec over an HTTP
// JSON API with NDJSON result streaming, bounded queues with
// backpressure, per-tenant quotas, and graceful drain.
package service

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vehicle"
)

// MissionSpec is one mission's full parameterization, in the vocabulary
// of the delorean CLI flags. The zero value of every optional field
// selects the documented default (see Build), so a minimal JSON request
// like {"attack":"GPS","seed":3} is a complete mission. The spec is a
// pure value: building it never mutates it, and the same spec always
// builds the same mission.
type MissionSpec struct {
	// RV is the vehicle profile name (default ArduCopter).
	RV string `json:"rv,omitempty"`
	// Defense is the strategy name (default DeLorean).
	Defense string `json:"defense,omitempty"`
	// Path is the mission path kind: S, MW, C, P1, P2, P3 (default S).
	Path string `json:"path,omitempty"`
	// Attack is the comma-separated sensor list under SDA; empty = no
	// attack.
	Attack string `json:"attack,omitempty"`
	// AttackStart/AttackDur bound the attack window in mission seconds
	// (start 0 = from mission start).
	AttackStart float64 `json:"attack_start,omitempty"`
	AttackDur   float64 `json:"attack_dur,omitempty"`
	// Stealthy selects a sub-threshold attack mode: random, gradual,
	// intermittent; empty = persistent full-bias SDA.
	Stealthy string `json:"stealthy,omitempty"`
	// Wind is the mean wind in m/s (0 = calm).
	Wind float64 `json:"wind,omitempty"`
	// Seed drives every stochastic component of the mission.
	Seed int64 `json:"seed"`
	// MaxSec is the mission time budget (default 300 simulated seconds).
	MaxSec float64 `json:"max_sec,omitempty"`
}

// SpecError reports one invalid MissionSpec field. It is a usage error:
// the CLI maps it to exit code 2 and the HTTP API to status 400.
type SpecError struct {
	// Field is the MissionSpec field name, e.g. "Defense".
	Field string
	// Reason says what is wrong with it.
	Reason string
}

func (e *SpecError) Error() string {
	return "service: invalid MissionSpec." + e.Field + ": " + e.Reason
}

// Mission is a built, validated mission: the sim.Config ready to run plus
// the collaborators the CLI's human-readable output wants to describe.
type Mission struct {
	// Spec is the normalized spec the mission was built from (defaults
	// applied).
	Spec MissionSpec
	// Cfg is the runnable mission configuration (Validate already passed).
	Cfg sim.Config
	// SDA is the attack the schedule carries, nil when attack-free.
	SDA *attack.SDA
	// Kind is the parsed path kind.
	Kind mission.PathKind
}

// withDefaults resolves the zero-value fields to the documented defaults.
func (s MissionSpec) withDefaults() MissionSpec {
	if s.RV == "" {
		s.RV = "ArduCopter"
	}
	if s.Defense == "" {
		s.Defense = "DeLorean"
	}
	if s.Path == "" {
		s.Path = "S"
	}
	if s.MaxSec <= 0 {
		s.MaxSec = 300
	}
	return s
}

// Build wires the spec into a runnable mission, replicating the delorean
// CLI's construction order exactly — profile, strategy, path, then a
// master rng seeded with Seed that draws the plan, the mission seed, and
// the attack schedule in that order. The draw order is part of the
// byte-identity contract: a spec restored from a trace header rebuilds
// the recording run bit for bit. The built config has passed
// sim.Config.Validate.
func (s MissionSpec) Build() (*Mission, error) {
	s = s.withDefaults()
	profile, err := vehicle.LookupProfile(vehicle.ProfileName(s.RV))
	if err != nil {
		return nil, &SpecError{Field: "RV", Reason: err.Error()}
	}
	strategy, err := ParseStrategy(s.Defense)
	if err != nil {
		return nil, err
	}
	kind, err := ParsePath(s.Path)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	plan := mission.NewOfKind(kind, profile.CruiseAltitude, rng)

	cfg := sim.Config{
		Profile:    profile,
		Plan:       plan,
		Strategy:   strategy,
		WindowSec:  15,
		WindMean:   s.Wind,
		WindGust:   0.5,
		Seed:       rng.Int63(),
		MaxSec:     s.MaxSec,
		TraceEvery: 100,
	}
	m := &Mission{Spec: s, Kind: kind}
	if s.Attack != "" {
		targets, err := ParseTargets(s.Attack)
		if err != nil {
			return nil, err
		}
		if s.Stealthy == "" {
			m.SDA = attack.New(rng, attack.DefaultParams(), targets, s.AttackStart, s.AttackStart+s.AttackDur)
		} else {
			mode, err := ParseStealthyMode(s.Stealthy)
			if err != nil {
				return nil, err
			}
			// Stealthy attacks inject sub-threshold bias: a tenth of the
			// Table 2 magnitudes.
			base := attack.New(rng, attack.DefaultParams(), targets, s.AttackStart, s.AttackStart+s.AttackDur)
			m.SDA = attack.NewWithBias(rng, base.Base().Scale(0.1), s.AttackStart, s.AttackStart+s.AttackDur, mode)
		}
		cfg.Attacks = attack.NewSchedule(m.SDA)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m.Cfg = cfg
	return m, nil
}

// UseReplay substitutes the recorded sensor stream for the simulator
// source. The trace's frames already carry every injection, so the live
// attack schedule is discarded (Validate forbids carrying both). The
// replay cursor is stateful: give every mission its own Replay over the
// shared decoded trace.
func (m *Mission) UseReplay(tr *trace.Trace) {
	m.Cfg.Source = source.NewReplay(tr)
	m.Cfg.Attacks = nil
}

// Record tees the simulator source through a trace recorder and returns
// it; after the mission runs, Recorder.Trace carries the recorded stream.
func (m *Mission) Record() *source.Recorder {
	rec := source.NewRecorder(sim.NewSimSource(sim.SourceConfig{
		Profile: m.Cfg.Profile,
		Seed:    m.Cfg.Seed,
		Attacks: m.Cfg.Attacks,
	}))
	m.Cfg.Source = rec
	m.Cfg.Attacks = nil
	return rec
}

// HeaderMeta stamps the full mission parameterization into a trace header
// (an ordered list, never a map) so SpecFromHeader can reconstruct the
// run with no other inputs.
func (s MissionSpec) HeaderMeta() []trace.MetaEntry {
	s = s.withDefaults()
	return []trace.MetaEntry{
		{Key: "generator", Value: "delorean"},
		{Key: "rv", Value: s.RV},
		{Key: "defense", Value: s.Defense},
		{Key: "path", Value: s.Path},
		{Key: "attack", Value: s.Attack},
		{Key: "attack-start", Value: formatFloat(s.AttackStart)},
		{Key: "attack-dur", Value: formatFloat(s.AttackDur)},
		{Key: "stealthy", Value: s.Stealthy},
		{Key: "wind", Value: formatFloat(s.Wind)},
		{Key: "seed", Value: strconv.FormatInt(s.Seed, 10)},
		{Key: "max-sec", Value: formatFloat(s.MaxSec)},
	}
}

// SpecFromHeader reconstructs the recording run's spec from a trace
// header. The attack fields ride along for provenance display, but a
// replayed mission never rebuilds the schedule — the injections are baked
// into the frames.
func SpecFromHeader(h trace.Header) (MissionSpec, error) {
	var s MissionSpec
	var err error
	str := func(key string) string {
		v, _ := h.MetaValue(key)
		return v
	}
	num := func(key string) float64 {
		v, ok := h.MetaValue(key)
		if !ok {
			return 0
		}
		f, perr := strconv.ParseFloat(v, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("trace header %s=%q: %w", key, v, perr)
		}
		return f
	}
	s.RV = str("rv")
	s.Defense = str("defense")
	s.Path = str("path")
	s.Attack = str("attack")
	s.Stealthy = str("stealthy")
	s.AttackStart = num("attack-start")
	s.AttackDur = num("attack-dur")
	s.Wind = num("wind")
	s.MaxSec = num("max-sec")
	if v, ok := h.MetaValue("seed"); ok {
		sd, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("trace header seed=%q: %w", v, perr)
		}
		s.Seed = sd
	}
	if s.RV == "" || s.Defense == "" || s.Path == "" {
		return s, fmt.Errorf("trace header is missing the delorean mission parameters (rv/defense/path)")
	}
	return s, err
}

// ReportMeta is the run-report meta block for n missions built from this
// spec. Generator stays "delorean" for single missions so a mission
// served over HTTP reports byte-identically to one run from the CLI.
func (s MissionSpec) ReportMeta(n int) telemetry.Meta {
	gen := "delorean"
	if n != 1 {
		gen = "delorean-server"
	}
	return telemetry.Meta{Generator: gen, Missions: n, Seed: s.Seed, Wind: s.Wind}
}

// BatchReport folds mission telemetries — in submission order — into one
// versioned run report under the named experiment group. The bytes are a
// pure function of (name, meta, telemetries), independent of how many
// workers produced them.
func BatchReport(name string, meta telemetry.Meta, tels []*telemetry.Mission) (*telemetry.Report, error) {
	col := telemetry.NewCollector()
	col.Begin(name)
	for _, m := range tels {
		col.Add(m)
	}
	return col.Report(meta)
}

// MissionReport is the single-mission run report the CLI writes for
// -report and the service streams as the final NDJSON line: group
// "delorean", meta from the spec.
func MissionReport(spec MissionSpec, tel *telemetry.Mission) (*telemetry.Report, error) {
	return BatchReport("delorean", spec.withDefaults().ReportMeta(1), []*telemetry.Mission{tel})
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ParseStrategy resolves a defense-strategy name (case-insensitive, with
// the registry's aliases).
func ParseStrategy(s string) (core.Strategy, error) {
	strategy, ok := core.StrategyByName(s)
	if !ok {
		return 0, &SpecError{Field: "Defense", Reason: fmt.Sprintf("unknown defense %q", s)}
	}
	return strategy, nil
}

// ParsePath resolves a mission path kind name.
func ParsePath(s string) (mission.PathKind, error) {
	switch strings.ToUpper(s) {
	case "S":
		return mission.Straight, nil
	case "MW":
		return mission.MultiWaypoint, nil
	case "C":
		return mission.Circular, nil
	case "P1":
		return mission.Polygon1, nil
	case "P2":
		return mission.Polygon2, nil
	case "P3":
		return mission.Polygon3, nil
	default:
		return 0, &SpecError{Field: "Path", Reason: fmt.Sprintf("unknown path kind %q", s)}
	}
}

// ParseStealthyMode resolves a stealthy attack mode name.
func ParseStealthyMode(s string) (attack.Mode, error) {
	switch strings.ToLower(s) {
	case "random":
		return attack.RandomBias, nil
	case "gradual":
		return attack.Gradual, nil
	case "intermittent":
		return attack.Intermittent, nil
	default:
		return 0, &SpecError{Field: "Stealthy", Reason: fmt.Sprintf("unknown stealthy mode %q", s)}
	}
}

// ParseTargets resolves a comma-separated sensor list.
func ParseTargets(s string) (sensors.TypeSet, error) {
	out := sensors.NewTypeSet()
	for _, name := range strings.Split(s, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "gps":
			out.Add(sensors.GPS)
		case "gyro", "gyroscope":
			out.Add(sensors.Gyro)
		case "accel", "accelerometer":
			out.Add(sensors.Accel)
		case "mag", "magnetometer":
			out.Add(sensors.Mag)
		case "baro", "barometer":
			out.Add(sensors.Baro)
		default:
			return 0, &SpecError{Field: "Attack", Reason: fmt.Sprintf("unknown sensor %q", name)}
		}
	}
	return out, nil
}
