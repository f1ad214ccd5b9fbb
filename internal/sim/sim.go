// Package sim is the closed-loop mission harness: it wires the vehicle
// physics, wind, sensor suite, SDA injection, and a defense framework into
// one simulated mission and reports the outcome metrics the paper's
// evaluation uses (mission success, crash, deviation, delay, overheads).
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/diagnosis"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
	"repro/internal/wind"
)

// Config describes one mission run.
type Config struct {
	Profile  vehicle.Profile
	Plan     mission.Plan
	Strategy core.Strategy

	// Source supplies the per-tick sensor readings. Nil selects the
	// simulator synthesizer (a SimSource built from Profile, Seed,
	// Attacks, and the dropout settings — the classic closed-loop
	// mission). A non-nil Source owns attack and failure injection
	// itself, so Attacks/DropoutAt/DropoutSensors must stay unset (see
	// Validate). A Source is stateful and must not be shared between
	// missions.
	Source sensors.Source

	// Delta are the diagnosis thresholds; zero value uses
	// core.DefaultDelta for the profile.
	Delta diagnosis.Delta
	// Diagnoser optionally overrides the diagnosis technique.
	Diagnoser diagnosis.Diagnoser
	// Detector optionally overrides the attack detector.
	Detector detect.Detector
	// WindowSec is the checkpoint window (default 15 s).
	WindowSec float64

	// Attacks is the SDA schedule; nil means attack-free.
	Attacks *attack.Schedule

	// DropoutAt fails the DropoutSensors at the given mission time
	// (failure injection; zero disables). DropoutSensors lists the
	// sensors that fail, nil for none.
	DropoutAt      float64
	DropoutSensors []sensors.Type

	// WindMean/WindGust/WindDir parameterize the wind model.
	WindMean, WindGust, WindDir float64

	// Seed drives all stochastic components (sensor noise, wind).
	Seed int64
	// DT is the physics/control period (default 0.01 s).
	DT float64
	// MaxSec is the mission time budget (default 240 s).
	MaxSec float64
	// TraceEvery records a trace point every N ticks (0 disables).
	TraceEvery int
	// CollectErrors records the framework's per-tick diagnosis error
	// vector (decimated 1:5) for δ calibration.
	CollectErrors bool
	// TraceTransitions records every pipeline FSM mode transition as a
	// stage-attributed telemetry event. Off by default so run reports stay
	// byte-stable across pipeline-internal refactors.
	TraceTransitions bool

	// Shared optionally attaches the per-(profile, DT) read-only caches
	// the engine seam builds once per process (quad recovery LQR gain,
	// EKF covariance schedule). Results are bit-identical with or without
	// it; Validate rejects a mismatched profile or control period.
	Shared *core.Shared
}

// TracePoint is one decimated sample of the mission for figures.
type TracePoint struct {
	T            float64
	Truth        vehicle.State
	Believed     vehicle.State
	Recovering   bool
	AlertActive  bool
	AttackActive bool
}

// Result is the mission outcome.
type Result struct {
	// Completed reports whether the mission tracker reached its end.
	Completed bool
	// Crashed reports a physical crash (ground impact or loss of
	// attitude).
	Crashed     bool
	CrashTime   float64
	CrashReason string
	// Stalled reports budget exhaustion without completion or crash.
	Stalled bool
	// FinalDistance is the true horizontal distance from the destination
	// at mission end.
	FinalDistance float64
	// Success is the paper's mission-success criterion: completed, no
	// crash, final deviation under 10 m (§5.2).
	Success bool
	// Duration is the mission time (simulated seconds).
	Duration float64

	// DiagnosedDuringAttack is the last diagnosis verdict made while an
	// attack was active (for TP accounting).
	DiagnosedDuringAttack sensors.TypeSet
	// DiagnosisRanDuringAttack reports whether a diagnosis verdict was
	// produced while the attack was active.
	DiagnosisRanDuringAttack bool
	// RecoveryActivations counts recovery episodes.
	RecoveryActivations int

	// AttitudeSeries holds decimated [roll pitch yaw] samples for RMSD.
	AttitudeSeries [][3]float64
	// Trace holds the decimated mission trace when requested.
	Trace []TracePoint

	// EnergyProxy integrates |thrust|·dt (the motor-effort battery
	// proxy).
	EnergyProxy float64
	// DefenseNS and TotalNS support the CPU-overhead accounting: modeled
	// nanoseconds of the defense modules and of the whole control loop on
	// the reference flight controller (see core's cost model). Modeled —
	// not wall-clock — time keeps mission results byte-identical across
	// runs and worker counts.
	DefenseNS int64
	TotalNS   int64
	Ticks     int
	// ErrorSamples holds decimated diagnosis error vectors when
	// CollectErrors is set.
	ErrorSamples []sensors.PhysState
	// MemoryBytes is the peak checkpoint buffer footprint.
	MemoryBytes int
	// Telemetry is the mission's full pipeline record: event trace,
	// counters, per-stage cost-model totals, and outcome classification.
	Telemetry *telemetry.Mission
}

// SuccessRadius is the paper's §5.2 mission-success threshold: 2× the
// standard 5 m GPS offset.
const SuccessRadius = 10.0

// cancelCheckTicks is how many control periods elapse between context
// polls in RunContext (100 ticks = 1 simulated second at the default DT —
// cheap enough to be invisible, frequent enough that cancellation lands
// within milliseconds of real time).
const cancelCheckTicks = 100

// Run executes one mission and returns its outcome.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cooperative cancellation: the mission loop polls
// ctx every cancelCheckTicks control periods (about one simulated second)
// and abandons the mission with ctx.Err() once the context is done. The
// executor (internal/engine) uses this to stop a sweep mid-flight.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	m, err := NewMission(cfg)
	if err != nil {
		return Result{}, err
	}
	done := ctx.Done()
	for {
		if m.tick%cancelCheckTicks == 0 {
			select {
			case <-done:
				return m.res, ctx.Err()
			default:
			}
		}
		cont, err := m.Step()
		if err != nil {
			return m.res, err
		}
		if !cont {
			break
		}
	}
	return m.Finish(), nil
}

// Mission is one resumable mission: NewMission builds the per-mission
// state, Step advances exactly one control period, and Finish computes
// the outcome once Step reports the mission over. RunContext is the
// driver every executor runs, one mission per worker at a time; the
// benchmark's stepped pass (bench/mission.go) drives Step directly to
// time it. Both run the identical per-tick code in the identical order.
type Mission struct {
	cfg     Config
	fw      *core.Pipeline
	tel     *telemetry.Recorder
	gusts   *wind.Model
	src     sensors.Source
	tracker *mission.Tracker

	truth    vehicle.State
	lastU    vehicle.Input
	tiltTime float64
	// reading is the current tick's sensor frame. It lives here, not in
	// Step's frame, because the pipeline reads it by pointer through
	// interface methods, which a local would escape to the heap for.
	reading sensors.Reading
	t       float64
	tick    int

	attackOnsetTick int
	latencyRecorded bool
	over            bool
	res             Result
}

// NewMission validates and defaults the configuration and assembles the
// mission: the defense pipeline, the wind field, the sensor source, and
// the plan tracker, with the master rng's draw order (suite seed, then
// wind seed) preserved exactly as documented on Config.Seed.
func NewMission(cfg Config) (*Mission, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DT <= 0 {
		cfg.DT = 0.01
	}
	if cfg.MaxSec <= 0 {
		cfg.MaxSec = 240
	}
	if cfg.Delta == (diagnosis.Delta{}) {
		cfg.Delta = core.DefaultDelta(cfg.Profile)
	}
	tel := telemetry.NewRecorder()
	if cfg.TraceTransitions {
		tel.EnableTransitions()
	}
	fw, err := core.New(core.Config{
		Profile:   cfg.Profile,
		DT:        cfg.DT,
		Delta:     cfg.Delta,
		WindowSec: cfg.WindowSec,
		Diagnoser: cfg.Diagnoser,
		Detector:  cfg.Detector,
		Telemetry: tel,
		Shared:    cfg.Shared,
	}, cfg.Strategy)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	// The master rng's draw order is part of the byte-identity contract:
	// first the suite's noise seed, then the wind seed. The suite seed is
	// drawn even when an external Source replaces the simulator suite, so
	// the wind — which stays simulator-side — sees the same seed either
	// way and a recorded mission replays bit-exactly.
	rng := rand.New(rand.NewSource(cfg.Seed))
	suiteSeed := rng.Int63()
	gusts := wind.New(cfg.WindMean, cfg.WindDir, cfg.WindGust, rand.New(rand.NewSource(rng.Int63())))
	src := cfg.Source
	if src == nil {
		src = newSimSource(cfg.Profile, suiteSeed, cfg.Attacks, cfg.DropoutAt, cfg.DropoutSensors)
	}
	m := &Mission{
		cfg:             cfg,
		fw:              fw,
		tel:             tel,
		gusts:           gusts,
		src:             src,
		tracker:         mission.NewTracker(cfg.Plan, 2.0),
		attackOnsetTick: -1,
	}
	fw.Init(m.truth)
	return m, nil
}

// Step advances the mission one control period. It returns (false, nil)
// once the mission is over — completed, crashed, or time budget
// exhausted — after which Finish yields the Result. A sensor-source
// error ends the mission with (false, err); the partial Result is
// available on the mission value but Finish must not be used.
func (m *Mission) Step() (bool, error) {
	if m.over || !(m.t < m.cfg.MaxSec) {
		m.over = true
		return false, nil
	}
	if m.tracker.Done() {
		m.res.Completed = true
		m.over = true
		return false, nil
	}
	cfg := &m.cfg
	res := &m.res
	dt := cfg.DT
	t := m.t
	w := m.gusts.Step(dt)

	// True acceleration for the accelerometer model (synthesizing
	// sources consume it; replay sources ignore it).
	accel := trueAccel(&cfg.Profile, &m.truth, &m.lastU, &w)
	var err error
	m.reading, err = m.src.Sample(sensors.Tick{T: t, DT: dt, Truth: m.truth, TruthAccel: accel})
	if err != nil {
		m.over = true
		return false, srcErr(t, err)
	}
	attackActive := m.reading.AttackActive

	u := m.fw.TickFrom(t, &m.reading.State, m.tracker.Target())
	m.lastU = u
	// Detection latency: ticks from the attack first reaching the
	// sensors to the detector alert latching.
	if attackActive && m.attackOnsetTick < 0 {
		m.attackOnsetTick = m.tick
	}
	if m.attackOnsetTick >= 0 && !m.latencyRecorded && m.fw.AlertActive() {
		m.tel.SetDetectionLatency(m.tick - m.attackOnsetTick)
		m.latencyRecorded = true
	}
	if cfg.CollectErrors && m.tick%5 == 0 {
		res.ErrorSamples = append(res.ErrorSamples, m.fw.LastError())
	}
	// Advance the mission plan on the post-tick believed state, i.e.
	// after detection/diagnosis/reconstruction have had the chance to
	// scrub an attack-induced jump out of the estimate this tick.
	believed := m.fw.Believed()
	m.tracker.Advance(believed.X, believed.Y, believed.Z)

	// Physics.
	if cfg.Profile.IsQuad() {
		cfg.Profile.Quad.StepInto(&m.truth, &m.truth, &u, &w, dt)
	} else {
		cfg.Profile.Rover.StepInto(&m.truth, &m.truth, &u, &w, dt)
	}

	// Telemetry.
	res.EnergyProxy += math.Abs(u.Thrust) * dt
	m.noteDiagnosis(attackActive)
	if mb := m.fw.MemoryBytes(); mb > res.MemoryBytes {
		res.MemoryBytes = mb
	}
	if m.tick%10 == 0 {
		res.AttitudeSeries = append(res.AttitudeSeries, [3]float64{m.truth.Roll, m.truth.Pitch, m.truth.Yaw})
	}
	if cfg.TraceEvery > 0 && m.tick%cfg.TraceEvery == 0 {
		res.Trace = append(res.Trace, TracePoint{
			T: t, Truth: m.truth, Believed: m.fw.Believed(),
			Recovering: m.fw.Recovering(), AlertActive: m.fw.AlertActive(),
			AttackActive: attackActive,
		})
	}
	m.tick++
	res.Duration = t

	// Crash detection (§5.2: physically damaged).
	if crashed, why := crashCheck(&cfg.Profile, &m.truth, m.tracker.Phase(), &m.tiltTime, dt); crashed {
		res.Crashed = true
		res.CrashTime = t
		res.CrashReason = why
		m.over = true
		m.t += dt
		return false, nil
	}
	m.t += dt
	return true, nil
}

// noteDiagnosis captures the pipeline's diagnosis verdict into the
// result on attacked ticks once diagnosis has run.
func (m *Mission) noteDiagnosis(attackActive bool) {
	if !attackActive || !m.fw.DiagnosisRan() {
		return
	}
	m.res.DiagnosedDuringAttack = m.fw.Compromised()
	m.res.DiagnosisRanDuringAttack = true
}

// srcErr wraps a sensor-source failure with its mission time. Kept out
// of Step so the hot loop stays free of the fmt boxing on the (terminal)
// error path; it is a declared hotalloc cold cut point.
func srcErr(t float64, err error) error {
	return fmt.Errorf("sim: sensor source at t=%.2fs: %w", t, err)
}

// Finish computes the mission outcome: crash/stall classification, final
// deviation, overhead accounting, and the telemetry record. Call it once,
// after Step has returned false without an error.
func (m *Mission) Finish() Result {
	res := &m.res
	if m.tracker.Done() {
		res.Completed = true
	}
	res.Stalled = !res.Completed && !res.Crashed

	dest := m.cfg.Plan.Destination()
	res.FinalDistance = m.truth.HorizontalDistanceTo(dest.X, dest.Y)
	res.Success = res.Completed && !res.Crashed && res.FinalDistance < SuccessRadius
	res.RecoveryActivations = m.fw.RecoveryActivations()
	res.DefenseNS, res.TotalNS, res.Ticks = m.fw.Overhead()

	m.tel.SetStages(m.fw.Stages())
	detail := "completed"
	switch {
	case res.Crashed:
		detail = "crashed:" + res.CrashReason
	case res.Stalled:
		detail = "stalled"
	}
	m.tel.FinishMission(res.Ticks, detail, telemetry.Outcome{
		Success:               res.Success,
		Crashed:               res.Crashed,
		Stalled:               res.Stalled,
		AttackMounted:         m.src.AttackMounted(),
		DiagnosedDuringAttack: res.DiagnosisRanDuringAttack && res.DiagnosedDuringAttack.Len() > 0,
	})
	res.Telemetry = m.tel.Mission()
	return m.res
}

// trueAccel returns the translational acceleration of the vehicle at its
// current state (what a perfect accelerometer would measure in this
// simplified world-frame model).
func trueAccel(p *vehicle.Profile, s *vehicle.State, u *vehicle.Input, w *vehicle.Wind) [3]float64 {
	var d vehicle.State
	if p.IsQuad() {
		p.Quad.DerivativeInto(&d, s, u, w)
		return [3]float64{d.VX, d.VY, d.VZ}
	}
	p.Rover.DerivativeInto(&d, s, u, w)
	return [3]float64{d.VX, d.VY, 0}
}

// crashCheck classifies physical crashes: a hard ground impact outside
// the landing phase, sustained loss of attitude, or gross divergence.
func crashCheck(p *vehicle.Profile, s *vehicle.State, phase mission.Phase, tiltTime *float64, dt float64) (bool, string) {
	if dist := math.Hypot(s.X, s.Y); dist > 2000 {
		return true, "diverged"
	}
	if !p.IsQuad() {
		return false, ""
	}
	if s.Z <= 0.01 && phase != mission.PhaseLanding && phase != mission.PhaseComplete && phase != mission.PhaseTakeoff {
		return true, "ground impact"
	}
	if math.Abs(s.Roll) > 1.2 || math.Abs(s.Pitch) > 1.2 {
		*tiltTime += dt
		if *tiltTime > 0.3 {
			return true, "attitude loss"
		}
	} else {
		*tiltTime = 0
	}
	return false, ""
}
