// Package telemetry is the deterministic observability layer of the
// detect→diagnose→recover pipeline: per-mission event traces, pipeline
// counters, fixed-bucket histograms, and per-stage cost-model totals that
// the executor aggregates into a versioned machine-readable run report.
//
// Everything in this package is keyed by simulation ticks — never the
// wall clock — and aggregation follows job submission order, so a run
// report is byte-identical at any worker count and on any machine. The
// determinism analyzer (cmd/delint) enforces the no-wall-clock rule over
// this package. The layer is allocation-light: a mission's telemetry is
// a handful of events and fixed-size counter structs, and a nil *Recorder
// is a valid no-op sink so instrumented code pays only a nil check when
// telemetry is off.
package telemetry

import (
	"fmt"
	"strconv"
)

// Kind enumerates the pipeline events a mission can emit.
type Kind int

// The event kinds of the detect→diagnose→recover pipeline.
const (
	// KindAlertRaised marks the attack detector's alert latching; the
	// detail names the triggering channel and mechanism (instantaneous
	// residual vs CUSUM accumulation).
	KindAlertRaised Kind = iota + 1
	// KindAlertCleared marks the alert unlatching without recovery — a
	// masked false alarm or an environmental transient.
	KindAlertCleared
	// KindDiagnosis is one diagnosis inference pass; the detail carries
	// the per-sensor verdicts (and marginals for the FG diagnoser).
	KindDiagnosis
	// KindReconstruct is a checkpoint restore: the EKF roll-forward
	// replay from the latest trusted checkpoint (detail: records
	// replayed).
	KindReconstruct
	// KindRecoveryEngaged marks recovery-controller entry; the detail
	// names the strategy, the controller flown, and the isolated sensors.
	KindRecoveryEngaged
	// KindSensorReadmitted marks an isolated sensor re-admitted by the
	// recovery re-validation loop.
	KindSensorReadmitted
	// KindRecoveryExited marks the hand-back to the nominal autopilot.
	KindRecoveryExited
	// KindMissionEnd closes the trace with the mission outcome.
	KindMissionEnd
	// KindModeTransition marks one pipeline FSM mode transition,
	// attributed to the stage that caused it. Recorded only when
	// transition tracing is enabled (EnableTransitions) so that default
	// run reports stay byte-identical across pipeline-internal refactors.
	KindModeTransition
)

// String names the kind as rendered in reports.
func (k Kind) String() string {
	switch k {
	case KindAlertRaised:
		return "alert_raised"
	case KindAlertCleared:
		return "alert_cleared"
	case KindDiagnosis:
		return "diagnosis"
	case KindReconstruct:
		return "reconstruct"
	case KindRecoveryEngaged:
		return "recovery_engaged"
	case KindSensorReadmitted:
		return "sensor_readmitted"
	case KindRecoveryExited:
		return "recovery_exited"
	case KindMissionEnd:
		return "mission_end"
	case KindModeTransition:
		return "mode_transition"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Stage enumerates the defense pipeline's control-loop stages. It is the
// single stage vocabulary shared by the cost model (StageNS per-stage
// totals), the pipeline's FSM transition attribution, and the run report:
// internal/core charges modeled nanoseconds against these names, and each
// FSM mode transition names the Stage that caused it.
type Stage int

// The pipeline stages, in per-tick execution order. The first three are
// the undefended control loop; the rest are the defense modules whose sum
// is the Table 3 CPU-overhead numerator.
const (
	// StageBaseLoop is the non-defense control-loop floor (sensor I/O,
	// scheduling, logging).
	StageBaseLoop Stage = iota + 1
	// StageFusion is the EKF predict+correct over the PS vector.
	StageFusion
	// StageControl is the control-law evaluation (autopilot or LQR).
	StageControl
	// StageShadow is the attack-free shadow-reference propagation.
	StageShadow
	// StageDetect is the residual+CUSUM attack-detector update.
	StageDetect
	// StageObserve is the diagnosis observation push.
	StageObserve
	// StageCheckpoint is the historic-states record append.
	StageCheckpoint
	// StageDiagnose is one diagnosis inference pass.
	StageDiagnose
	// StageReconstruct is the checkpoint-replay state reconstruction.
	StageReconstruct
	// StageRecoveryMonitor is the re-validation and attack-subsidence
	// monitoring while recovery is engaged.
	StageRecoveryMonitor
	// NumStages is the stage-count sentinel, not a stage (excluded from
	// exhaustiveness; see internal/lint/suite.go).
	NumStages
)

// String names the stage as rendered in reports and transition events.
func (s Stage) String() string {
	switch s {
	case StageBaseLoop:
		return "base_loop"
	case StageFusion:
		return "fusion"
	case StageControl:
		return "control"
	case StageShadow:
		return "shadow"
	case StageDetect:
		return "detect"
	case StageObserve:
		return "observe"
	case StageCheckpoint:
		return "checkpoint"
	case StageDiagnose:
		return "diagnose"
	case StageReconstruct:
		return "reconstruct"
	case StageRecoveryMonitor:
		return "recovery_monitor"
	}
	// strconv.Itoa, unlike fmt, boxes nothing; String is reachable from
	// the per-tick transition path.
	return "Stage(" + strconv.Itoa(int(s)) + ")"
}

// MarshalText renders the kind name into JSON reports.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name back from a JSON report, so persisted
// reports (campaign shard checkpoints, recorded run artifacts) round-trip
// losslessly through their encoding.
func (k *Kind) UnmarshalText(text []byte) error {
	name := string(text)
	for c := KindAlertRaised; c <= KindModeTransition; c++ {
		if c.String() == name {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", name)
}

// Event is one timestamped pipeline event. Tick is the simulation tick
// (control periods since mission start) — the only clock this layer
// knows.
type Event struct {
	Tick   int    `json:"tick"`
	Kind   Kind   `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// Counters are one mission's pipeline totals. All fields are exact event
// counts, so sums over missions are order-independent.
type Counters struct {
	// AlertsRaised counts detector alert latch edges.
	AlertsRaised int `json:"alerts_raised"`
	// AlertTicks counts control periods with the alert latched while in
	// normal (non-recovery) mode.
	AlertTicks int `json:"alert_ticks"`
	// DiagnosisPasses counts diagnosis inference passes, including the
	// settling-window re-checks after recovery entry.
	DiagnosisPasses int `json:"diagnosis_passes"`
	// MaskedAlerts counts diagnosis passes that implicated no sensor —
	// detector false alarms masked before recovery could engage.
	MaskedAlerts int `json:"masked_alerts"`
	// Reconstructions counts checkpoint restores (EKF roll-forward
	// replays).
	Reconstructions int `json:"reconstructions"`
	// ReplayedRecords totals the checkpoint records replayed across all
	// reconstructions.
	ReplayedRecords int `json:"replayed_records"`
	// RecoveryEpisodes counts recovery-controller activations.
	RecoveryEpisodes int `json:"recovery_episodes"`
	// RecoveryTicks counts control periods flown under the recovery
	// controller.
	RecoveryTicks int `json:"recovery_ticks"`
	// SensorsReadmitted counts isolated sensors re-admitted by the
	// re-validation loop.
	SensorsReadmitted int `json:"sensors_readmitted"`
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.AlertsRaised += o.AlertsRaised
	c.AlertTicks += o.AlertTicks
	c.DiagnosisPasses += o.DiagnosisPasses
	c.MaskedAlerts += o.MaskedAlerts
	c.Reconstructions += o.Reconstructions
	c.ReplayedRecords += o.ReplayedRecords
	c.RecoveryEpisodes += o.RecoveryEpisodes
	c.RecoveryTicks += o.RecoveryTicks
	c.SensorsReadmitted += o.SensorsReadmitted
}

// StageNS breaks the deterministic cost model's modeled nanoseconds down
// per control-loop stage. The stages mirror internal/core/costmodel.go:
// the base columns are the undefended loop, the rest are the defense
// modules whose sum is the Table 3 CPU-overhead numerator.
type StageNS struct {
	BaseLoop int64 `json:"base_loop_ns"`
	Fusion   int64 `json:"fusion_ns"`
	Control  int64 `json:"control_ns"`

	Shadow          int64 `json:"shadow_ns"`
	Detect          int64 `json:"detect_ns"`
	Observe         int64 `json:"observe_ns"`
	Checkpoint      int64 `json:"checkpoint_ns"`
	Diagnose        int64 `json:"diagnose_ns"`
	Reconstruct     int64 `json:"reconstruct_ns"`
	RecoveryMonitor int64 `json:"recovery_monitor_ns"`
}

// DefenseNS is the defense modules' modeled total — the Table 3
// CPU-overhead numerator.
func (s StageNS) DefenseNS() int64 {
	return s.Shadow + s.Detect + s.Observe + s.Checkpoint +
		s.Diagnose + s.Reconstruct + s.RecoveryMonitor
}

// BaseNS is the undefended control loop's modeled total.
func (s StageNS) BaseNS() int64 { return s.BaseLoop + s.Fusion + s.Control }

// TotalNS is the whole control loop's modeled total.
func (s StageNS) TotalNS() int64 { return s.BaseNS() + s.DefenseNS() }

// AddNS charges ns modeled nanoseconds against the named stage. It is
// the cost model's write path: internal/core charges every stage through
// this single switch, so the cost-model vocabulary cannot drift from the
// pipeline's Stage identity.
func (s *StageNS) AddNS(st Stage, ns int64) {
	switch st {
	case StageBaseLoop:
		s.BaseLoop += ns
	case StageFusion:
		s.Fusion += ns
	case StageControl:
		s.Control += ns
	case StageShadow:
		s.Shadow += ns
	case StageDetect:
		s.Detect += ns
	case StageObserve:
		s.Observe += ns
	case StageCheckpoint:
		s.Checkpoint += ns
	case StageDiagnose:
		s.Diagnose += ns
	case StageReconstruct:
		s.Reconstruct += ns
	case StageRecoveryMonitor:
		s.RecoveryMonitor += ns
	case NumStages:
		// The sentinel carries no bucket; charging it is a programming
		// error kept silent to preserve determinism.
	}
}

// Of returns the accumulated nanoseconds of the named stage.
func (s StageNS) Of(st Stage) int64 {
	switch st {
	case StageBaseLoop:
		return s.BaseLoop
	case StageFusion:
		return s.Fusion
	case StageControl:
		return s.Control
	case StageShadow:
		return s.Shadow
	case StageDetect:
		return s.Detect
	case StageObserve:
		return s.Observe
	case StageCheckpoint:
		return s.Checkpoint
	case StageDiagnose:
		return s.Diagnose
	case StageReconstruct:
		return s.Reconstruct
	case StageRecoveryMonitor:
		return s.RecoveryMonitor
	case NumStages:
		return 0
	}
	return 0
}

// Add accumulates o into s.
func (s *StageNS) Add(o StageNS) {
	s.BaseLoop += o.BaseLoop
	s.Fusion += o.Fusion
	s.Control += o.Control
	s.Shadow += o.Shadow
	s.Detect += o.Detect
	s.Observe += o.Observe
	s.Checkpoint += o.Checkpoint
	s.Diagnose += o.Diagnose
	s.Reconstruct += o.Reconstruct
	s.RecoveryMonitor += o.RecoveryMonitor
}

// Outcome is the mission-level classification the collector needs to
// build precision/recall inputs without re-deriving experiment context.
type Outcome struct {
	Success bool `json:"success"`
	Crashed bool `json:"crashed"`
	Stalled bool `json:"stalled"`
	// AttackMounted reports whether an SDA schedule was configured.
	AttackMounted bool `json:"attack_mounted"`
	// DiagnosedDuringAttack reports whether diagnosis implicated at least
	// one sensor while the attack was active.
	DiagnosedDuringAttack bool `json:"diagnosed_during_attack"`
}

// Mission is one mission's complete telemetry record: the event trace,
// the counters, the per-stage cost-model totals, and the outcome.
type Mission struct {
	Events   []Event  `json:"events"`
	Counters Counters `json:"counters"`
	Stages   StageNS  `json:"stages"`
	Outcome  Outcome  `json:"outcome"`
	// Ticks is the mission length in control periods.
	Ticks int `json:"ticks"`
	// DetectionLatencyTicks is attack onset → alert latch in ticks; -1
	// when no attack was mounted or the attack was never detected.
	DetectionLatencyTicks int `json:"detection_latency_ticks"`
}

// Recorder accumulates one mission's telemetry. A nil *Recorder is a
// valid no-op sink, so instrumented pipeline code needs no nil checks at
// the call sites.
type Recorder struct {
	m Mission
	// traceTransitions enables KindModeTransition events. Off by default
	// so that run reports stay byte-identical across pipeline-internal
	// refactors; tests and explicit tracing runs opt in.
	traceTransitions bool
}

// NewRecorder returns an empty mission recorder.
func NewRecorder() *Recorder {
	return &Recorder{m: Mission{DetectionLatencyTicks: -1}}
}

// Event appends a raw event to the trace.
func (r *Recorder) Event(tick int, kind Kind, detail string) {
	if r == nil {
		return
	}
	r.m.Events = append(r.m.Events, Event{Tick: tick, Kind: kind, Detail: detail})
}

// AlertRaised records a detector alert latch edge.
func (r *Recorder) AlertRaised(tick int, detail string) {
	if r == nil {
		return
	}
	r.m.Counters.AlertsRaised++
	r.Event(tick, KindAlertRaised, detail)
}

// AlertCleared records the alert unlatching without recovery.
func (r *Recorder) AlertCleared(tick int) {
	if r == nil {
		return
	}
	r.Event(tick, KindAlertCleared, "")
}

// AlertTick counts one control period with the alert latched.
func (r *Recorder) AlertTick() {
	if r == nil {
		return
	}
	r.m.Counters.AlertTicks++
}

// DiagnosisPass records one diagnosis inference pass as an event. masked
// marks an empty verdict (a masked detector false alarm).
func (r *Recorder) DiagnosisPass(tick int, masked bool, detail string) {
	if r == nil {
		return
	}
	r.m.Counters.DiagnosisPasses++
	if masked {
		r.m.Counters.MaskedAlerts++
	}
	r.Event(tick, KindDiagnosis, detail)
}

// QuietDiagnosisPass counts a settling-window diagnosis re-check without
// emitting an event (the re-checks run every tick of the union window and
// would flood the trace).
func (r *Recorder) QuietDiagnosisPass() {
	if r == nil {
		return
	}
	r.m.Counters.DiagnosisPasses++
}

// Reconstruction records one checkpoint restore replaying the given
// number of records.
func (r *Recorder) Reconstruction(tick, records int) {
	if r == nil {
		return
	}
	r.m.Counters.Reconstructions++
	r.m.Counters.ReplayedRecords += records
	r.Event(tick, KindReconstruct, fmt.Sprintf("records=%d", records))
}

// RecoveryEngaged records a recovery-controller activation.
func (r *Recorder) RecoveryEngaged(tick int, detail string) {
	if r == nil {
		return
	}
	r.m.Counters.RecoveryEpisodes++
	r.Event(tick, KindRecoveryEngaged, detail)
}

// RecoveryTick counts one control period under the recovery controller.
func (r *Recorder) RecoveryTick() {
	if r == nil {
		return
	}
	r.m.Counters.RecoveryTicks++
}

// SensorReadmitted records an isolated sensor re-admitted by the
// re-validation loop.
func (r *Recorder) SensorReadmitted(tick int, sensor string) {
	if r == nil {
		return
	}
	r.m.Counters.SensorsReadmitted++
	r.Event(tick, KindSensorReadmitted, sensor)
}

// RecoveryExited records the hand-back to the nominal autopilot.
func (r *Recorder) RecoveryExited(tick int, detail string) {
	if r == nil {
		return
	}
	r.Event(tick, KindRecoveryExited, detail)
}

// EnableTransitions turns on FSM mode-transition tracing: every
// pipeline mode transition is recorded as one stage-attributed
// KindModeTransition event. Off by default so default run reports stay
// byte-stable.
func (r *Recorder) EnableTransitions() {
	if r == nil {
		return
	}
	r.traceTransitions = true
}

// ModeTransition records one pipeline FSM transition from→to, attributed
// to the stage that caused it. A no-op unless EnableTransitions was
// called.
func (r *Recorder) ModeTransition(tick int, from, to string, cause Stage) {
	if r == nil || !r.traceTransitions {
		return
	}
	r.Event(tick, KindModeTransition, from+"->"+to+" stage="+cause.String())
}

// SetDetectionLatency records the attack-onset→alert latency in ticks.
func (r *Recorder) SetDetectionLatency(ticks int) {
	if r == nil {
		return
	}
	r.m.DetectionLatencyTicks = ticks
}

// SetStages installs the mission's per-stage cost-model totals.
func (r *Recorder) SetStages(s StageNS) {
	if r == nil {
		return
	}
	r.m.Stages = s
}

// FinishMission closes the trace with the outcome.
func (r *Recorder) FinishMission(tick int, detail string, o Outcome) {
	if r == nil {
		return
	}
	r.m.Ticks = tick
	r.m.Outcome = o
	r.Event(tick, KindMissionEnd, detail)
}

// Mission returns the accumulated record. A nil recorder returns nil.
func (r *Recorder) Mission() *Mission {
	if r == nil {
		return nil
	}
	return &r.m
}
