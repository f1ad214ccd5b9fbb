// The legacy monolithic Framework, transcribed verbatim from the
// pre-pipeline internal/core/core.go (commit da6c9a4) with only
// mechanical renames (Framework→legacyFramework, Mode→legacyMode,
// New→newLegacyFramework) and the declarations that survived the
// refactor unchanged (Config, Strategy, detectThreshFromDelta,
// approxModel, isAngularIdx) deduplicated. It is the bit-exactness
// oracle for the staged pipeline: equiv_test.go drives this and the
// Pipeline over identical mixed attack/no-attack step sequences and
// requires math.Float64bits equality on every output. Since then it has
// followed only API changes around it: call shapes (the EKF and the LQR
// take their period at construction), and the defaults of the removed
// Config.DetectThresh and Config.MaxRecoverySec, which it reads from
// detectThreshFromDelta and maxRecoverySec as the pipeline does.
//
// Do not clean this file up: its value is being a faithful copy of the
// replaced implementation.
package core

import (
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/control"
	"repro/internal/detect"
	"repro/internal/diagnosis"
	"repro/internal/ekf"
	"repro/internal/floats"
	"repro/internal/mission"
	"repro/internal/reconstruct"
	"repro/internal/recovery"
	"repro/internal/sensors"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// legacyMode is the framework's control mode.
type legacyMode int

// Control modes.
const (
	legacyModeNormal legacyMode = iota + 1
	legacyModeRecovery
)

// legacyFramework is one defense instance bound to one vehicle.
type legacyFramework struct {
	cfg      Config
	strategy Strategy

	autopilot     control.Autopilot
	recoveryCtl   *recovery.LQR
	filter        *ekf.Filter
	detector      detect.Detector
	diagnoser     diagnosis.Diagnoser
	recorder      *checkpoint.Recorder
	reconstructor *reconstruct.Reconstructor
	step          ekf.StepFunc
	approxStep    ekf.StepFunc // SSR's learned (imperfect) model

	shadow      vehicle.State
	ssrState    vehicle.State
	lastInput   vehicle.Input
	mode        legacyMode
	compromised sensors.TypeSet
	alertPrev   bool

	// Per-tick scratch: the canonical sensor list, the full trusted set
	// served on the (steady-state) non-recovery path, and a reused buffer
	// for the recovery-mode subset — so active() allocates nothing.
	allTypes  []sensors.Type
	allActive sensors.TypeSet
	activeBuf sensors.TypeSet

	recoveryStart   float64
	diagUnionUntil  float64
	endEdgeSeen     bool
	quietSince      float64
	residQuietSince float64
	graceUntil      float64
	lastExit        float64
	alertSince      float64
	sensorQuiet     map[sensors.Type]float64
	prevMeas        sensors.PhysState
	prevEst         sensors.PhysState
	havePrev        bool

	// Telemetry.
	tel                 *telemetry.Recorder
	lastDiagnosis       sensors.TypeSet
	diagnosisRan        bool
	recoveryActivations int
	lastErr             sensors.PhysState
	stages              telemetry.StageNS // modeled per-stage cost (see costmodel.go)
	ticks               int
}

// New builds a framework for the given strategy.
func newLegacyFramework(cfg Config, strategy Strategy) (*legacyFramework, error) {
	if cfg.DT <= 0 {
		return nil, fmt.Errorf("core: non-positive control period %v", cfg.DT)
	}
	if cfg.WindowSec <= 0 {
		cfg.WindowSec = 15
	}
	f := &legacyFramework{
		cfg:         cfg,
		strategy:    strategy,
		tel:         cfg.Telemetry,
		autopilot:   control.ForProfile(cfg.Profile),
		filter:      ekf.New(cfg.Profile, cfg.DT),
		recorder:    checkpoint.NewRecorder(cfg.WindowSec),
		step:        ekf.StepForProfile(cfg.Profile),
		mode:        legacyModeNormal,
		compromised: sensors.NewTypeSet(),
		allTypes:    sensors.AllTypes(),
		allActive:   sensors.NewTypeSet(sensors.AllTypes()...),
		activeBuf:   sensors.NewTypeSet(),
	}
	f.detector = cfg.Detector
	if f.detector == nil {
		f.detector = detect.NewResidual(detectThreshFromDelta(cfg.Delta))
	}
	f.diagnoser = cfg.Diagnoser
	if f.diagnoser == nil {
		f.diagnoser = diagnosis.NewDeLorean(cfg.Delta)
	}
	f.reconstructor = reconstruct.New(cfg.Profile, cfg.DT)
	f.approxStep = approxModel(cfg.Profile)

	lqr, err := recovery.NewLQR(cfg.Profile, cfg.DT)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	f.recoveryCtl = lqr
	return f, nil
}

// Strategy returns the framework's defense strategy.
func (f *legacyFramework) Strategy() Strategy { return f.strategy }

// Init seeds the framework at the mission start state (assumed attack
// free, §2.3).
func (f *legacyFramework) Init(start vehicle.State) {
	f.filter.Init(start)
	f.shadow = start
	f.ssrState = start
	f.mode = legacyModeNormal
	f.compromised = sensors.NewTypeSet()
	f.lastDiagnosis = sensors.NewTypeSet()
	f.diagnosisRan = false
	f.alertPrev = false
	f.havePrev = false
	f.graceUntil = 0
	f.lastExit = 0
	f.detector.Reset()
	f.diagnoser.Reset()
	f.autopilot.Reset()
	f.recoveryCtl.Reset()
}

// Believed returns the state estimate the control loop is flying on.
func (f *legacyFramework) Believed() vehicle.State {
	if f.mode == legacyModeRecovery && f.strategy == StrategySSR {
		return f.ssrState
	}
	return f.filter.State()
}

// Recovering reports whether the recovery controller is engaged.
func (f *legacyFramework) Recovering() bool { return f.mode == legacyModeRecovery }

// AlertActive reports the detector's current alert status.
func (f *legacyFramework) AlertActive() bool { return f.detector.Alert() }

// Compromised returns the latest diagnosis outcome (empty until diagnosis
// has run).
func (f *legacyFramework) Compromised() sensors.TypeSet { return f.lastDiagnosis }

// DiagnosisRan reports whether diagnosis has produced at least one
// verdict since Init.
func (f *legacyFramework) DiagnosisRan() bool { return f.diagnosisRan }

// RecoveryActivations counts recovery episodes since Init (gratuitous
// activations under detector false alarms are the §6.1 FP metric).
func (f *legacyFramework) RecoveryActivations() int { return f.recoveryActivations }

// LastError returns the most recent per-state diagnosis error vector
// |observed − reference| (used for δ calibration).
func (f *legacyFramework) LastError() sensors.PhysState { return f.lastErr }

// MemoryBytes reports the checkpoint buffer footprint (Table 3).
func (f *legacyFramework) MemoryBytes() int { return f.recorder.MemoryBytes() }

// The Table 3 CPU-overhead accounting lives in costmodel.go (Overhead).

// active returns the sensor set currently trusted by the fusion. The
// returned set is framework-owned scratch, rebuilt (not reallocated) per
// tick; callers must not mutate or retain it.
func (f *legacyFramework) active() sensors.TypeSet {
	if f.mode != legacyModeRecovery {
		return f.allActive
	}
	f.activeBuf = 0
	for _, t := range f.allTypes {
		if !f.compromised.Has(t) {
			f.activeBuf.Add(t)
		}
	}
	return f.activeBuf
}

// Tick runs one control period: fuse, detect, diagnose, reconstruct,
// control. meas is the sensor-derived PS vector (possibly attacked);
// target is the current mission waypoint.
func (f *legacyFramework) Tick(t float64, meas sensors.PhysState, target mission.Waypoint) vehicle.Input {
	dt := f.cfg.DT
	f.ticks++

	// 1. Fusion with the currently trusted sensors.
	active := f.active()
	f.filter.PredictHybrid(f.lastInput, &meas, active)
	_ = f.filter.Correct(&meas, active) // singularity cannot occur with diagonal R > 0

	// 2–4. Defense machinery (charged to the overhead cost model).
	f.chargeTick()
	u, engaged := f.defenseTick(t, meas, target)

	// 5. Control.
	if !engaged {
		u = f.autopilot.Update(f.filter.Estimate(), target, dt)
	}

	// 6. Checkpoint recording. While recording is stopped (alert), only
	// the control inputs are retained, to let reconstruction bridge the
	// detection gap.
	f.recorder.Record(t, &meas, f.filter.Estimate(), u)
	f.recorder.RecordInput(t, u)

	f.lastInput = u
	f.prevMeas = meas
	f.prevEst = f.estimatePS()
	f.havePrev = true
	return u
}

// defenseTick runs shadow propagation, detection, diagnosis, recovery
// entry/exit, and — when recovery is engaged — produces the recovery
// control action. It returns (input, true) when the recovery controller
// owns the loop this tick.
func (f *legacyFramework) defenseTick(t float64, meas sensors.PhysState, target mission.Waypoint) (vehicle.Input, bool) {
	dt := f.cfg.DT

	// Shadow reference. Attitude evolves by the model; the translational
	// channels dead-reckon from the *measured* acceleration, which sees
	// the wind the model cannot (otherwise sustained wind makes the
	// wind-blind model reference drift away from reality, poisoning both
	// detection and δ calibration). An accelerometer attack cannot hide
	// in this path: the accel channel itself is checked against the
	// model-implied acceleration and alerts within a tick, after which
	// the shadow freezes to pure model propagation.
	// An alert that persists without recovery engaging (diagnosis keeps
	// masking it) is environmental; after 3 s the reference resumes
	// tracking and the detector restarts, otherwise the frozen wind-blind
	// model would drift away from reality indefinitely.
	alertNow := f.detector.Alert()
	if !alertNow {
		f.alertSince = 0
	} else if floats.Zero(f.alertSince) {
		f.alertSince = t
	}
	stuckAlert := alertNow && f.mode == legacyModeNormal && t-f.alertSince > 3.0
	if stuckAlert {
		f.detector.Reset()
		f.alertSince = 0
		alertNow = false
		// Hard re-anchor: the reference freewheeled during the stuck
		// alert; without the snap the stale reference would re-trigger
		// the detector immediately.
		f.shadow = f.filter.State()
	}
	if f.mode == legacyModeNormal {
		// The translational channels dead-reckon from measured acceleration
		// even during an alert — the wind-blind model would otherwise drift
		// past δ within seconds of a (possibly false) alarm and turn it
		// into a GPS diagnosis false positive. A corrupted accelerometer
		// cannot hide here: its own channel is checked against the
		// model-implied acceleration and implicates it directly.
		f.shadow = f.stepShadowStrapdown(f.shadow, f.lastInput, meas, dt)
		if !alertNow {
			// Anchoring stays on even while the CUSUM accumulators are
			// rising: the translational anchor is weak enough
			// (λ_pos = 0.1/s) that a stealthy ramp cannot be absorbed
			// without sustaining a lag above the CUSUM drift. It stops only
			// during alerts, so an active attack cannot drag the reference.
			f.anchorShadow(dt)
		}
	} else {
		f.shadow = stepValue(f.step, f.shadow, f.lastInput, dt)
	}
	refPS := f.referencePS(f.shadow, f.lastInput)
	f.lastErr = meas.AbsDiff(refPS)

	// Detection (suppressed during the post-recovery re-acquisition
	// grace; the reference is re-converging and would self-trigger).
	var alert bool
	if t < f.graceUntil {
		f.detector.Reset()
	} else {
		alert = f.detector.Update(&refPS, &meas)
	}

	// Diagnosis observation (reference per technique).
	diagRef := refPS
	if f.diagnoser.Reference() == diagnosis.RefFused {
		diagRef = f.estimatePS()
	}
	f.diagnoser.Observe(&diagRef, &meas)

	// Telemetry: alert edges and latched-alert ticks, recorded for every
	// strategy including the undefended baseline (detection latency is a
	// detector property, not a recovery property).
	if alert && !f.alertPrev {
		f.tel.AlertRaised(f.ticks, f.triggerDetail())
	} else if !alert && f.alertPrev && f.mode == legacyModeNormal {
		f.tel.AlertCleared(f.ticks)
	}
	if alert && f.mode == legacyModeNormal {
		f.tel.AlertTick()
	}

	if f.strategy == StrategyNone {
		f.alertPrev = alert
		return vehicle.Input{}, false
	}

	// Alert rising edge: stop checkpointing (Fig. 6b).
	if alert && !f.alertPrev {
		f.recorder.OnAlert()
	}

	// While alerted and not yet recovering, run diagnosis each tick; enter
	// recovery as soon as sensors are implicated. An empty diagnosis masks
	// the detector's false alarm (§6.1).
	if alert && f.mode == legacyModeNormal {
		f.runDiagnosisAndMaybeRecover(t, meas)
	}

	// For a short settling window after recovery entry, keep diagnosing
	// and widen the isolated set if further sensors are implicated (slow
	// sensors such as the 10 Hz GPS reveal their bias only at their next
	// sample, up to 100 ms after the inertial channels).
	if f.mode == legacyModeRecovery && f.strategy == StrategyDeLorean && t < f.diagUnionUntil {
		f.chargeDiagnosis()
		f.tel.QuietDiagnosisPass()
		extra := f.diagnoser.Diagnose()
		grew := false
		for _, typ := range extra.List() {
			if !f.compromised.Has(typ) {
				f.compromised.Add(typ)
				grew = true
			}
		}
		if grew {
			f.lastDiagnosis = f.compromised
			f.tel.Event(f.ticks, telemetry.KindDiagnosis, "widened isolated="+f.compromised.String())
			if rec, ok := f.recorder.LatestTrusted(); ok && t-rec.T <= 2*f.cfg.WindowSec+5 {
				f.chargeReconstruction()
				if _, hybrid, stats, err := f.reconstructor.Reconstruct(f.recorder, meas, f.compromised); err == nil {
					f.filter.SetState(hybrid)
					f.tel.Reconstruction(f.ticks, stats.Records)
				}
			}
		}
	}

	// Alert cleared without recovery (masked FP): resume checkpointing.
	if !alert && f.alertPrev && f.mode == legacyModeNormal {
		f.recorder.Resume(t)
	}
	f.alertPrev = alert

	if f.mode != legacyModeRecovery {
		return vehicle.Input{}, false
	}
	f.chargeRecoveryTick()
	f.tel.RecoveryTick()

	// Per-sensor re-validation: an isolated sensor whose channels have
	// agreed with the internal estimate for a sustained period is
	// re-admitted (its bias — if still present — is below the harm
	// threshold δ, and live feedback beats dead reckoning). This bounds
	// the damage of a marginal diagnosis under sub-threshold attacks:
	// without it, a masked gyroscope leaves the attitude open-loop for
	// the whole episode.
	if f.strategy == StrategyDeLorean && t-f.recoveryStart > 1.0 {
		f.revalidateSensors(t, meas)
		if f.compromised.Len() == 0 {
			f.exitRecovery(t, meas)
			return vehicle.Input{}, false
		}
	}

	// Recovery exit monitoring.
	if f.shouldExitRecovery(t, meas) {
		f.exitRecovery(t, meas)
		return vehicle.Input{}, false
	}

	// Recovery control action per strategy.
	switch f.strategy {
	case StrategySSR:
		// Virtual sensors: the controller flies on the approximate-model
		// state.
		u := f.autopilot.Update(&f.ssrState, target, dt)
		f.ssrState = stepValue(f.approxStep, f.ssrState, u, dt)
		return u, true
	case StrategyPIDPiper:
		// FFC: blend model feed-forward with the (still attacked) fused
		// feedback.
		ff := f.autopilot.Update(&f.ssrState, target, dt)
		fb := f.autopilot.Update(f.filter.Estimate(), target, dt)
		const alpha = 0.3 // feedback share
		u := vehicle.Input{
			Thrust: (1-alpha)*ff.Thrust + alpha*fb.Thrust,
			MRoll:  (1-alpha)*ff.MRoll + alpha*fb.MRoll,
			MPitch: (1-alpha)*ff.MPitch + alpha*fb.MPitch,
			MYaw:   (1-alpha)*ff.MYaw + alpha*fb.MYaw,
		}
		f.ssrState = stepValue(f.step, f.ssrState, u, dt)
		return u, true
	case StrategyDeLorean:
		// Targeted recovery derives its control actions "corresponding to
		// the compromised sensors": with position feedback intact (GPS
		// clean) the mission continues under the nominal autopilot at
		// mission speed, only the isolated sensors being masked; without
		// it, the conservative LQR flies the dead-reckoned estimate.
		if !f.compromised.Has(sensors.GPS) {
			return f.autopilot.Update(f.filter.Estimate(), target, dt), true
		}
		return f.recoveryCtl.Update(f.filter.Estimate(), target), true
	default:
		// LQR-O: LQR on the fully-masked estimate — the pure model
		// roll-forward.
		return f.recoveryCtl.Update(f.filter.Estimate(), target), true
	}
}

// runDiagnosisAndMaybeRecover is steps 3–4 of Fig. 3.
func (f *legacyFramework) runDiagnosisAndMaybeRecover(t float64, meas sensors.PhysState) {
	f.chargeDiagnosis()
	diagnosed := f.diagnoser.Diagnose()
	f.lastDiagnosis = diagnosed
	f.diagnosisRan = true
	f.tel.DiagnosisPass(f.ticks, diagnosed.Len() == 0, f.diagnosisDetail(diagnosed))
	if diagnosed.Len() == 0 {
		return // masked false positive: no recovery activation
	}

	switch f.strategy {
	case StrategyLQRO:
		// Worst-case assumption: isolate everything.
		f.compromised = sensors.NewTypeSet(sensors.AllTypes()...)
	case StrategyDeLorean:
		f.compromised = diagnosed
	default:
		// SSR and PID-Piper neither diagnose nor isolate; they tolerate.
		f.compromised = sensors.NewTypeSet()
	}

	// State reconstruction (§4.3) for the checkpoint-based strategies.
	// If the trusted anchor is too stale (e.g. a re-attack before a fresh
	// quiet window completed), the replay error would exceed the current
	// estimate's error; in that case keep the estimate and only isolate.
	anchorFresh := false
	if rec, ok := f.recorder.LatestTrusted(); ok {
		anchorFresh = t-rec.T <= 2*f.cfg.WindowSec+5
	}
	// On a rapid re-entry (e.g. an intermittent or sub-threshold attack
	// cycling the alert) the live estimate — maintained through the
	// previous episode — is more accurate than a long open-loop replay
	// from the same old anchor; keep it and only isolate.
	if f.lastExit > 0 && t-f.lastExit < 10 {
		anchorFresh = false
	}
	switch f.strategy {
	case StrategyNone:
		// Unreachable: the undefended baseline returns before diagnosis.
	case StrategyDeLorean:
		if anchorFresh {
			f.chargeReconstruction()
			if _, hybrid, stats, err := f.reconstructor.Reconstruct(f.recorder, meas, f.compromised); err == nil {
				f.filter.SetState(hybrid)
				f.tel.Reconstruction(f.ticks, stats.Records)
			}
		}
	case StrategyLQRO:
		if anchorFresh {
			f.chargeReconstruction()
			if rolled, stats, err := f.reconstructor.RollForward(f.recorder, f.compromised); err == nil {
				f.filter.SetState(rolled)
				f.tel.Reconstruction(f.ticks, stats.Records)
			}
		}
	case StrategySSR:
		// SSR anchors its virtual sensors at the current (possibly already
		// corrupted) estimate — it has no checkpointing.
		f.ssrState = f.filter.State()
	case StrategyPIDPiper:
		f.ssrState = f.filter.State()
	}

	f.mode = legacyModeRecovery
	f.recoveryActivations++
	f.recoveryStart = t
	f.diagUnionUntil = t + 0.3
	f.endEdgeSeen = false
	f.quietSince = t
	f.residQuietSince = 0
	f.sensorQuiet = nil
	f.tel.RecoveryEngaged(f.ticks, f.recoveryDetail())
}

// triggerDetail renders the detector's alert attribution when the
// detector exposes one (the residual+CUSUM detector does).
func (f *legacyFramework) triggerDetail() string {
	type triggered interface{ Trigger() detect.Trigger }
	if d, ok := f.detector.(triggered); ok {
		return d.Trigger().String()
	}
	return ""
}

// diagnosisDetail renders a diagnosis verdict for the event trace: the
// per-sensor marginals when the diagnoser exposes them (the FG diagnoser
// does), else just the implicated set.
func (f *legacyFramework) diagnosisDetail(diagnosed sensors.TypeSet) string {
	type verdicts interface {
		Verdicts() []diagnosis.SensorVerdict
	}
	d, ok := f.diagnoser.(verdicts)
	if !ok {
		return diagnosed.String()
	}
	var b strings.Builder
	for i, v := range d.Verdicts() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:p=%.3f", v.Sensor, v.MaxMarginal)
		if v.Malicious {
			b.WriteString("(malicious)")
		}
	}
	return b.String()
}

// recoveryDetail names the strategy, the controller that will fly the
// episode, and the isolated sensors, for the recovery-engaged event.
func (f *legacyFramework) recoveryDetail() string {
	var controller string
	switch f.strategy {
	case StrategyNone:
		controller = "none" // unreachable: the baseline never engages
	case StrategyDeLorean:
		controller = "autopilot"
		if f.compromised.Has(sensors.GPS) {
			controller = "lqr"
		}
	case StrategyLQRO:
		controller = "lqr"
	case StrategySSR:
		controller = "virtual-sensors"
	case StrategyPIDPiper:
		controller = "ffc"
	}
	return f.strategy.String() + "/" + controller + " isolated=" + f.compromised.String()
}

// revalidateSensors re-admits isolated sensors whose channels have all
// stayed within 0.7δ of the internal estimate for 2 s.
func (f *legacyFramework) revalidateSensors(t float64, meas sensors.PhysState) {
	if f.sensorQuiet == nil {
		f.sensorQuiet = make(map[sensors.Type]float64, sensors.NumTypes)
	}
	estPS := f.estimatePS()
	resid := meas.AbsDiff(estPS)
	for _, typ := range f.compromised.List() {
		quiet := true
		for _, idx := range sensors.StatesOf(typ) {
			if d := f.cfg.Delta[idx]; d > 0 && resid[idx] > 0.7*d {
				quiet = false
				break
			}
		}
		if !quiet {
			f.sensorQuiet[typ] = 0
			continue
		}
		if floats.Zero(f.sensorQuiet[typ]) {
			f.sensorQuiet[typ] = t
			continue
		}
		if t-f.sensorQuiet[typ] >= 2.0 {
			f.compromised.Remove(typ)
			f.sensorQuiet[typ] = 0
			f.lastDiagnosis = f.compromised
			f.tel.SensorReadmitted(f.ticks, typ.String())
		}
	}
}

// monitoredChannels returns the channels whose residuals/edges govern
// recovery exit: the compromised sensors' states for the isolating
// strategies, every monitored state for the tolerating ones.
func (f *legacyFramework) monitoredChannels() []sensors.StateIndex {
	set := f.compromised
	if set.Len() == 0 {
		set = sensors.NewTypeSet(sensors.AllTypes()...)
	}
	var out []sensors.StateIndex
	for _, typ := range set.List() {
		for _, idx := range sensors.StatesOf(typ) {
			if f.cfg.Delta[idx] > 0 {
				out = append(out, idx)
			}
		}
	}
	return out
}

// shouldExitRecovery implements the attack-subsidence test: the attack is
// deemed over when (a) an end edge (a super-physical jump in the attacked
// channels, i.e. the bias being removed) has been seen and the channels
// have been edge-quiet for a hold period, or (b) the attacked channels'
// residuals against the internal estimate stay below δ for the hold
// period, or (c) the recovery duration cap expires.
func (f *legacyFramework) shouldExitRecovery(t float64, meas sensors.PhysState) bool {
	const (
		holdSec = 1.5
		// armAfterSec ignores onset-related edges: the attack's first
		// biased samples, the reconstruction jump, and the diagnosis
		// settling window all occur within the first second of recovery
		// and must not arm the exit detector.
		armAfterSec = 1.0
	)
	if t-f.recoveryStart >= maxRecoverySec {
		return true
	}
	channels := f.monitoredChannels()
	estPS := f.estimatePS()

	// Edge detection: a super-physical per-tick jump in the attacked
	// channels (the bias appearing, changing, or being removed). Angular
	// rate channels are excluded: real per-tick rate changes during
	// maneuvers are of the same order as a bias edge, and would keep
	// resetting the quiet timer.
	if f.havePrev {
		dMeas := meas.AbsDiff(f.prevMeas)
		dEst := estPS.AbsDiff(f.prevEst)
		for _, idx := range channels {
			if idx >= sensors.SWRoll && idx <= sensors.SWYaw {
				continue
			}
			if dMeas[idx]-dEst[idx] > 2*f.cfg.Delta[idx] {
				if t-f.recoveryStart >= armAfterSec {
					// A late edge arms the exit: it is the bias being
					// removed or modulated; quiet after it means the
					// attack has ended.
					f.endEdgeSeen = true
				}
				f.quietSince = t
				break
			}
		}
	}
	if f.endEdgeSeen && t-f.quietSince >= holdSec {
		return true
	}

	// Residual quiescence: the attacked channels agree with the internal
	// estimate for the hold period. (Only reachable when the recovery
	// estimate is accurate — i.e. targeted recovery with good
	// reconstruction; the worst-case roll-forward exits via the edge path
	// or the duration cap.)
	if t-f.recoveryStart < armAfterSec {
		return false
	}
	// The margin (0.7δ) guards against drifting dead-reckoned estimates
	// momentarily agreeing with still-biased measurements.
	resid := meas.AbsDiff(estPS)
	for _, idx := range channels {
		if resid[idx] > 0.7*f.cfg.Delta[idx] {
			f.residQuietSince = t
			return false
		}
	}
	if floats.Zero(f.residQuietSince) {
		f.residQuietSince = t
	}
	return t-f.residQuietSince >= holdSec
}

// exitRecovery hands control back to the nominal autopilot (Fig. 3: "once
// the attack subsides ... the recovery mode is turned off"). The fusion is
// re-seeded from the now-trusted live sensors, and detection is granted a
// short re-acquisition grace period so that the recovery estimate's
// residual drift is not itself flagged as a fresh attack.
func (f *legacyFramework) exitRecovery(t float64, meas sensors.PhysState) {
	wasCompromised := f.compromised
	f.mode = legacyModeNormal
	f.compromised = sensors.NewTypeSet()
	f.lastExit = t
	f.recorder.Resume(t)
	f.autopilot.Reset()
	f.recoveryCtl.Reset()
	f.detector.Reset()
	f.diagnoser.Reset()
	f.graceUntil = t + 3.0
	f.tel.RecoveryExited(f.ticks, "was-isolated="+wasCompromised.String())

	// Snap the previously isolated channels back onto the live sensors —
	// but only channels whose measurement is now plausibly consistent with
	// the internal estimate (within 3δ). A channel still showing a gross
	// residual means the exit may be premature for that sensor; keeping
	// the dead-reckoned estimate there avoids snapping onto a bias that
	// has not actually ended, and the detector will re-alert after grace.
	est := f.filter.State()
	plausible := func(idx sensors.StateIndex, estVal float64) bool {
		d := f.cfg.Delta[idx]
		if d <= 0 {
			return true
		}
		diff := meas[idx] - estVal
		if isAngularIdx(idx) {
			diff = vehicle.WrapAngle(diff)
		}
		return diff < 3*d && diff > -3*d
	}
	if wasCompromised.Has(sensors.GPS) && plausible(sensors.SX, est.X) && plausible(sensors.SY, est.Y) {
		est.X, est.Y = meas[sensors.SX], meas[sensors.SY]
		est.VX, est.VY = meas[sensors.SVX], meas[sensors.SVY]
		if f.cfg.Profile.IsQuad() {
			est.Z, est.VZ = meas[sensors.SZ], meas[sensors.SVZ]
		}
	}
	if wasCompromised.Has(sensors.Baro) && f.cfg.Profile.IsQuad() && plausible(sensors.SBaroAlt, est.Z) {
		est.Z = meas[sensors.SBaroAlt]
	}
	if wasCompromised.Has(sensors.Mag) {
		est.Yaw = ekf.MagYaw(&meas)
	}
	if wasCompromised.Has(sensors.Gyro) && f.cfg.Profile.IsQuad() {
		est.Roll, est.Pitch, est.Yaw = meas[sensors.SRoll], meas[sensors.SPitch], meas[sensors.SYaw]
		est.WRoll, est.WPitch, est.WYaw = meas[sensors.SWRoll], meas[sensors.SWPitch], meas[sensors.SWYaw]
	}
	f.filter.SetState(est)
	f.shadow = est
	f.alertPrev = false
}

// stepShadowStrapdown advances the shadow one tick: attitude and rates by
// the dynamics model, velocity by integrating the measured acceleration
// (which sees the wind), position by integrating the velocity. The
// measured acceleration drives the integration only while it is itself
// consistent with the model-implied acceleration within δ — a biased
// accelerometer (e.g. persisting across a premature recovery exit) falls
// back to the model and implicates only its own channel.
func (f *legacyFramework) stepShadowStrapdown(s vehicle.State, u vehicle.Input, meas sensors.PhysState, dt float64) vehicle.State {
	model := stepValue(f.step, s, u, dt)
	a := f.modelAccel(s, u)
	ok := func(idx sensors.StateIndex, modelA float64) bool {
		d := f.cfg.Delta[idx]
		diff := meas[idx] - modelA
		return d <= 0 || (diff < d && diff > -d)
	}
	next := model
	if ok(sensors.SAX, a[0]) && ok(sensors.SAY, a[1]) && ok(sensors.SAZ, a[2]) {
		next.VX = s.VX + meas[sensors.SAX]*dt
		next.VY = s.VY + meas[sensors.SAY]*dt
		next.VZ = s.VZ + meas[sensors.SAZ]*dt
		next.X = s.X + next.VX*dt
		next.Y = s.Y + next.VY*dt
		next.Z = s.Z + next.VZ*dt
	}
	if next.Z < 0 {
		next.Z = 0
	}
	return next
}

// anchorShadow softly pulls the shadow reference toward the fused
// estimate so that integration drift does not accumulate during long
// quiet periods. The gains are per channel family: the translational
// channels dead-reckon from measured acceleration and need only a weak
// pull (λ = 0.1–0.3/s) — keeping them weak is what stops a stealthy
// sub-threshold GPS ramp from dragging the reference along (the lag it
// would have to induce exceeds the CUSUM drift and trips suspicion
// first). The attitude channels are pure model propagation and need a
// firm pull (λ = 2/s).
func (f *legacyFramework) anchorShadow(dt float64) {
	const (
		lambdaPos = 0.1
		lambdaVel = 0.3
		lambdaAtt = 2.0
	)
	gp, gv, ga := lambdaPos*dt, lambdaVel*dt, lambdaAtt*dt
	est := f.filter.State()
	f.shadow.X += gp * (est.X - f.shadow.X)
	f.shadow.Y += gp * (est.Y - f.shadow.Y)
	f.shadow.Z += gp * (est.Z - f.shadow.Z)
	f.shadow.VX += gv * (est.VX - f.shadow.VX)
	f.shadow.VY += gv * (est.VY - f.shadow.VY)
	f.shadow.VZ += gv * (est.VZ - f.shadow.VZ)
	f.shadow.Roll = vehicle.WrapAngle(f.shadow.Roll + ga*vehicle.WrapAngle(est.Roll-f.shadow.Roll))
	f.shadow.Pitch = vehicle.WrapAngle(f.shadow.Pitch + ga*vehicle.WrapAngle(est.Pitch-f.shadow.Pitch))
	f.shadow.Yaw = vehicle.WrapAngle(f.shadow.Yaw + ga*vehicle.WrapAngle(est.Yaw-f.shadow.Yaw))
	f.shadow.WRoll += ga * (est.WRoll - f.shadow.WRoll)
	f.shadow.WPitch += ga * (est.WPitch - f.shadow.WPitch)
	f.shadow.WYaw += ga * (est.WYaw - f.shadow.WYaw)
}

// referencePS expands a rigid-body reference state into the full PS
// vector: model-implied acceleration, field from yaw, altitude from z.
func (f *legacyFramework) referencePS(s vehicle.State, u vehicle.Input) sensors.PhysState {
	accel := f.modelAccel(s, u)
	return sensors.TruePhysState(s, accel, sensors.BodyField(s.Yaw))
}

// estimatePS expands the fused estimate into a PS vector.
func (f *legacyFramework) estimatePS() sensors.PhysState {
	est := f.filter.State()
	return sensors.TruePhysState(est, f.modelAccel(est, f.lastInput), sensors.BodyField(est.Yaw))
}

// modelAccel returns the model-implied translational acceleration at
// state s under input u.
func (f *legacyFramework) modelAccel(s vehicle.State, u vehicle.Input) [3]float64 {
	p := f.cfg.Profile
	if p.IsQuad() {
		d := p.Quad.Derivative(s, u, vehicle.Wind{})
		return [3]float64{d.VX, d.VY, d.VZ}
	}
	d := p.Rover.Derivative(s, u, vehicle.Wind{})
	return [3]float64{d.VX, d.VY, 0}
}

// The legacy cost-model methods, transcribed from the pre-pipeline
// internal/core/costmodel.go (the constants are unchanged and shared).

func (f *legacyFramework) chargeTick() {
	f.stages.BaseLoop += costBaseLoopNS
	f.stages.Fusion += costFusionNS
	f.stages.Control += costControlNS
	f.stages.Shadow += costShadowNS
	f.stages.Detect += costDetectNS
	f.stages.Observe += costObserveNS
	f.stages.Checkpoint += costCheckpointNS
}

func (f *legacyFramework) chargeDiagnosis() {
	f.stages.Diagnose += costDiagnoseNS
}

func (f *legacyFramework) chargeReconstruction() {
	records := int64(f.cfg.WindowSec / f.cfg.DT)
	if records < 1 {
		records = 1
	}
	f.stages.Reconstruct += records * costReconstructPerRecordNS
}

func (f *legacyFramework) chargeRecoveryTick() {
	f.stages.RecoveryMonitor += costRecoveryMonitorNS
}

func (f *legacyFramework) Overhead() (defenseNS, totalNS int64, ticks int) {
	return f.stages.DefenseNS(), f.stages.TotalNS(), f.ticks
}

func (f *legacyFramework) Stages() telemetry.StageNS { return f.stages }

// stepValue runs a StepFunc in the value form the legacy pipeline used.
func stepValue(step ekf.StepFunc, s vehicle.State, u vehicle.Input, dt float64) vehicle.State {
	step(&s, &s, u, dt)
	return s
}
