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

// Pipeline is the staged defense pipeline bound to one vehicle: the six
// stages (detect, diagnose, checkpoint, reconstruct, recover, exit)
// wired around the shared plant (EKF fusion, shadow reference, nominal
// autopilot, conservative LQR) and sequenced by the recovery-mode FSM.
// Per-strategy behavior lives entirely in the stage Composition resolved
// from the strategy registry at New; the tick path never branches on the
// Strategy value.
type Pipeline struct {
	cfg      Config
	strategy Strategy
	comp     Composition

	autopilot     control.Autopilot
	recoveryCtl   recovery.Controller
	filter        *ekf.Filter
	detector      Detector
	diagnoser     diagnosis.Diagnoser
	recorder      *checkpoint.Recorder
	reconstructor *reconstruct.Reconstructor
	step          ekf.StepFunc
	approxStep    ekf.StepFunc // SSR's learned (imperfect) model

	shadow      vehicle.State
	ssrState    vehicle.State
	lastInput   vehicle.Input
	fsm         FSM
	compromised sensors.TypeSet
	alertPrev   bool

	monitorBuf []sensors.StateIndex // reused by monitoredChannels each recovery tick

	recoveryStart   float64
	diagUnionUntil  float64
	endEdgeSeen     bool
	quietSince      float64
	residQuietSince float64
	graceUntil      float64
	lastExit        float64
	alertSince      float64
	sensorQuiet     [sensors.NumTypes + 1]float64 // by sensors.Type: when an isolated sensor began agreeing (0: not yet)
	prevMeas        sensors.PhysState
	prevFused       vehicle.State // the fused estimate at the end of the previous tick
	havePrev        bool

	// Per-tick vectors handed to interface methods. They live here rather
	// than in a tick's frame: a pointer passed through an interface
	// escapes, so a local would move to the heap every tick.
	meas  sensors.PhysState // Tick's frame, copied once from its value parameter
	refPS sensors.PhysState // the shadow reference expanded into PS
	estPS sensors.PhysState // the fused estimate expanded into PS, for RefFused diagnosers

	// Telemetry.
	tel                 *telemetry.Recorder
	lastDiagnosis       sensors.TypeSet
	diagnosisRan        bool
	recoveryActivations int
	lastErr             sensors.PhysState
	stages              telemetry.StageNS // modeled per-stage cost (see costmodel.go)
	ticks               int
}

// New builds the pipeline for the given strategy, resolving the
// strategy's stage composition from the registry.
func New(cfg Config, strategy Strategy) (*Pipeline, error) {
	if cfg.DT <= 0 {
		return nil, fmt.Errorf("core: non-positive control period %v", cfg.DT)
	}
	def, ok := lookupDef(strategy)
	if !ok {
		return nil, fmt.Errorf("core: unregistered strategy %v", strategy)
	}
	if cfg.WindowSec <= 0 {
		cfg.WindowSec = 15
	}
	if cfg.MaxRecoverySec <= 0 {
		cfg.MaxRecoverySec = 40
	}
	if cfg.DetectThresh == (detect.Thresholds{}) {
		cfg.DetectThresh = detectThreshFromDelta(cfg.Delta)
	}
	if cfg.Shared != nil && !cfg.Shared.Matches(cfg.Profile.Name, cfg.DT) {
		return nil, fmt.Errorf("core: shared caches are for (%s), not (%s, dt=%v)",
			cfg.Shared.profile, cfg.Profile.Name, cfg.DT)
	}
	p := &Pipeline{
		cfg:       cfg,
		strategy:  strategy,
		tel:       cfg.Telemetry,
		autopilot: control.ForProfile(cfg.Profile),
		filter:    ekf.New(cfg.Profile),
		recorder:  checkpoint.NewRecorder(cfg.WindowSec),
		step:      ekf.StepForProfile(cfg.Profile),
		fsm:       NewFSM(cfg.Telemetry),
	}
	p.detector = cfg.Detector
	if p.detector == nil {
		p.detector = detect.NewResidual(cfg.DetectThresh)
	}
	p.diagnoser = cfg.Diagnoser
	if p.diagnoser == nil {
		p.diagnoser = diagnosis.NewDeLorean(cfg.Delta)
	}
	p.reconstructor = reconstruct.New(cfg.Profile, cfg.DT)
	p.approxStep = approxModel(cfg.Profile)

	var lqr *recovery.LQR
	var err error
	if cfg.Shared != nil {
		p.filter.AttachSchedule(cfg.Shared.ekf)
		lqr, err = recovery.NewLQRShared(cfg.Profile, cfg.DT, cfg.Shared.lqrQuad)
	} else {
		lqr, err = recovery.NewLQR(cfg.Profile, cfg.DT)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p.recoveryCtl = lqr
	p.comp = def.compose(p)
	return p, nil
}

// Strategy returns the pipeline's defense strategy.
func (p *Pipeline) Strategy() Strategy { return p.strategy }

// Mode returns the FSM's current recovery-mode state.
func (p *Pipeline) Mode() Mode { return p.fsm.Mode() }

// Init seeds the pipeline at the mission start state (assumed attack
// free, §2.3).
func (p *Pipeline) Init(start vehicle.State) {
	p.filter.Init(start)
	p.shadow = start
	p.ssrState = start
	p.fsm.Reset()
	p.compromised = 0
	p.lastDiagnosis = 0
	p.diagnosisRan = false
	p.alertPrev = false
	p.havePrev = false
	p.graceUntil = 0
	p.lastExit = 0
	p.detector.Reset()
	p.diagnoser.Reset()
	p.autopilot.Reset()
	p.recoveryCtl.Reset()
}

// Believed returns the state estimate the control loop is flying on.
func (p *Pipeline) Believed() vehicle.State {
	if p.comp.VirtualBelieved && p.fsm.Mode().Recovery() {
		return p.ssrState
	}
	return *p.filter.Estimate()
}

// Recovering reports whether the recovery controller is engaged.
func (p *Pipeline) Recovering() bool { return p.fsm.Mode().Recovery() }

// AlertActive reports the detector's current alert status.
func (p *Pipeline) AlertActive() bool { return p.detector.Alert() }

// Compromised returns the latest diagnosis outcome (empty until diagnosis
// has run).
func (p *Pipeline) Compromised() sensors.TypeSet { return p.lastDiagnosis }

// DiagnosisRan reports whether diagnosis has produced at least one
// verdict since Init.
func (p *Pipeline) DiagnosisRan() bool { return p.diagnosisRan }

// RecoveryActivations counts recovery episodes since Init (gratuitous
// activations under detector false alarms are the §6.1 FP metric).
func (p *Pipeline) RecoveryActivations() int { return p.recoveryActivations }

// LastError returns the most recent per-state diagnosis error vector
// |observed − reference| (used for δ calibration).
func (p *Pipeline) LastError() sensors.PhysState { return p.lastErr }

// MemoryBytes reports the checkpoint buffer footprint (Table 3).
func (p *Pipeline) MemoryBytes() int { return p.recorder.MemoryBytes() }

// The Table 3 CPU-overhead accounting lives in costmodel.go (Overhead).

// active returns the sensor set currently trusted by the fusion: every
// sensor but the isolated ones while recovering, every sensor otherwise.
func (p *Pipeline) active() sensors.TypeSet {
	if !p.fsm.Mode().Recovery() {
		return sensors.All
	}
	return sensors.All &^ p.compromised
}

// Tick runs one control period: fuse, detect, diagnose, reconstruct,
// control. meas is the sensor-derived PS vector (possibly attacked);
// target is the current mission waypoint. It is TickFrom for a caller
// that holds the frame by value: the frame is copied once, into the
// pipeline.
func (p *Pipeline) Tick(t float64, meas sensors.PhysState, target mission.Waypoint) vehicle.Input {
	p.meas = meas
	return p.TickFrom(t, &p.meas, target)
}

// TickFrom is Tick on a frame the caller owns: *meas is read, never
// written, during the call. meas reaches interface methods and so
// escapes; point it into a long-lived struct (sim.Mission keeps its
// reading in one), not at a local.
func (p *Pipeline) TickFrom(t float64, meas *sensors.PhysState, target mission.Waypoint) vehicle.Input {
	dt := p.cfg.DT
	p.ticks++

	// 1. Fusion with the currently trusted sensors.
	active := p.active()
	p.filter.PredictHybrid(p.lastInput, meas, active, dt)
	_ = p.filter.Correct(meas, active) // singularity cannot occur with diagonal R > 0

	// 2–4. Defense machinery (charged to the overhead cost model).
	p.chargeTick()
	u, engaged := p.defenseTick(t, meas, target)

	// 5. Control.
	if !engaged {
		u = p.autopilot.Update(p.filter.Estimate(), target, dt)
	}

	// 6. Checkpoint recording. While recording is stopped (alert), only
	// the control inputs are retained, to let reconstruction bridge the
	// detection gap.
	p.recorder.Record(t, meas, p.filter.Estimate(), u)
	p.recorder.RecordInput(t, u)

	// The exit policy compares against this tick's measurement and fused
	// estimate. Only recovery ticks read them, so the estimate is kept as
	// the 96-byte state and expanded there.
	p.lastInput = u
	p.prevMeas = *meas
	p.prevFused = *p.filter.Estimate()
	p.havePrev = true
	return u
}

// defenseTick runs the staged pipeline for one control period: shadow
// propagation, the detect stage, the diagnose stage's observation push,
// recovery entry/exit via the FSM, and — when recovery is engaged — the
// recovery-controller stage's control action. It returns (input, true)
// when the recovery controller owns the loop this tick.
func (p *Pipeline) defenseTick(t float64, meas *sensors.PhysState, target mission.Waypoint) (vehicle.Input, bool) {
	dt := p.cfg.DT

	// Shadow stage. Attitude evolves by the model; the translational
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
	alertNow := p.detector.Alert()
	if !alertNow {
		p.alertSince = 0
	} else if floats.Zero(p.alertSince) {
		p.alertSince = t
	}
	stuckAlert := alertNow && p.fsm.Mode().Normal() && t-p.alertSince > 3.0
	if stuckAlert {
		p.detector.Reset()
		p.alertSince = 0
		alertNow = false
		// Hard re-anchor: the reference freewheeled during the stuck
		// alert; without the snap the stale reference would re-trigger
		// the detector immediately.
		p.shadow = *p.filter.Estimate()
	}
	if p.fsm.Mode().Normal() {
		// The translational channels dead-reckon from measured acceleration
		// even during an alert — the wind-blind model would otherwise drift
		// past δ within seconds of a (possibly false) alarm and turn it
		// into a GPS diagnosis false positive. A corrupted accelerometer
		// cannot hide here: its own channel is checked against the
		// model-implied acceleration and implicates it directly.
		p.stepShadowStrapdown(meas, dt)
		if !alertNow {
			// Anchoring stays on even while the CUSUM accumulators are
			// rising: the translational anchor is weak enough
			// (λ_pos = 0.1/s) that a stealthy ramp cannot be absorbed
			// without sustaining a lag above the CUSUM drift. It stops only
			// during alerts, so an active attack cannot drag the reference.
			p.anchorShadow(dt)
		}
	} else {
		p.step(&p.shadow, &p.shadow, p.lastInput, dt)
	}
	refPS := &p.refPS
	p.expandPS(refPS, &p.shadow)
	sensors.AbsDiffInto(&p.lastErr, meas, refPS)

	// Detect stage (suppressed during the post-recovery re-acquisition
	// grace; the reference is re-converging and would self-trigger).
	var alert bool
	if t < p.graceUntil {
		p.detector.Reset()
	} else {
		alert = p.detector.Update(refPS, meas)
	}

	// Diagnose stage: observation push (reference per technique).
	diagRef := refPS
	if p.comp.Diagnose != nil {
		if p.comp.Diagnose.Reference() == diagnosis.RefFused {
			diagRef = &p.estPS
			p.expandPS(diagRef, p.filter.Estimate())
		}
		p.comp.Diagnose.Observe(diagRef, meas)
	} else {
		if p.diagnoser.Reference() == diagnosis.RefFused {
			diagRef = &p.estPS
			p.expandPS(diagRef, p.filter.Estimate())
		}
		p.diagnoser.Observe(diagRef, meas)
	}

	// Telemetry: alert edges and latched-alert ticks, recorded for every
	// strategy including the undefended baseline (detection latency is a
	// detector property, not a recovery property). Alert edges while the
	// nominal controller flies are the Nominal↔Suspicious FSM edges.
	if alert && !p.alertPrev {
		p.tel.AlertRaised(p.ticks, p.triggerDetail())
		if p.fsm.Mode() == ModeNominal {
			p.fsm.Transition(p.ticks, ModeSuspicious, telemetry.StageDetect)
		}
	} else if !alert && p.alertPrev && p.fsm.Mode().Normal() {
		p.tel.AlertCleared(p.ticks)
		if p.fsm.Mode() == ModeSuspicious {
			p.fsm.Transition(p.ticks, ModeNominal, telemetry.StageDetect)
		}
	}
	if alert && p.fsm.Mode().Normal() {
		p.tel.AlertTick()
	}

	// Undefended baseline: no triage stage, alerts are never acted on.
	if p.comp.Diagnose == nil {
		p.alertPrev = alert
		return vehicle.Input{}, false
	}

	// Alert rising edge: stop checkpointing (Fig. 6b).
	if alert && !p.alertPrev {
		p.recorder.OnAlert()
	}

	// While alerted and not yet recovering, run triage each tick; enter
	// recovery as soon as sensors are implicated. An empty diagnosis masks
	// the detector's false alarm (§6.1).
	if alert && p.fsm.Mode().Normal() {
		p.triage(t, meas)
	}

	// For a short settling window after recovery entry, keep diagnosing
	// and widen the isolated set if further sensors are implicated (slow
	// sensors such as the 10 Hz GPS reveal their bias only at their next
	// sample, up to 100 ms after the inertial channels).
	if p.comp.UnionWindow && p.fsm.Mode().Recovery() && t < p.diagUnionUntil {
		p.widenDiagnosis(t, meas)
	}

	// Alert cleared without recovery (masked FP): resume checkpointing.
	if !alert && p.alertPrev && p.fsm.Mode().Normal() {
		p.recorder.Resume(t)
	}
	p.alertPrev = alert

	if !p.fsm.Mode().Recovery() {
		return vehicle.Input{}, false
	}
	p.chargeRecoveryTick()
	p.tel.RecoveryTick()

	// Re-validation stage: an isolated sensor whose channels have agreed
	// with the internal estimate for a sustained period is re-admitted
	// (its bias — if still present — is below the harm threshold δ, and
	// live feedback beats dead reckoning). This bounds the damage of a
	// marginal diagnosis under sub-threshold attacks: without it, a
	// masked gyroscope leaves the attitude open-loop for the whole
	// episode.
	if p.comp.Revalidate && t-p.recoveryStart > 1.0 {
		if p.fsm.Mode() == ModeRecovering {
			p.fsm.Transition(p.ticks, ModeRevalidating, telemetry.StageRecoveryMonitor)
		}
		p.revalidateSensors(t, meas)
		if p.compromised.Len() == 0 {
			p.exitRecovery(t, meas)
			return vehicle.Input{}, false
		}
	}

	// Exit stage: attack-subsidence monitoring.
	if p.comp.Exit.ShouldExit(t, meas) {
		p.exitRecovery(t, meas)
		return vehicle.Input{}, false
	}

	// Recovery-controller stage.
	return p.comp.Recover.Update(t, target), true
}

// triage is steps 3–4 of Fig. 3: one diagnosis inference pass and — when
// sensors are implicated — isolation, state reconstruction, and recovery
// engagement (Suspicious → Diagnosing → Recovering).
func (p *Pipeline) triage(t float64, meas *sensors.PhysState) {
	p.chargeDiagnosis()
	diagnosed, isolate := p.comp.Diagnose.Triage()
	p.lastDiagnosis = diagnosed
	p.diagnosisRan = true
	p.tel.DiagnosisPass(p.ticks, diagnosed.Len() == 0, p.diagnosisDetail(diagnosed))
	if diagnosed.Len() == 0 {
		return // masked false positive: no recovery activation
	}
	p.fsm.Transition(p.ticks, ModeDiagnosing, telemetry.StageDiagnose)
	p.compromised = isolate

	// Reconstruction stage (§4.3). If the trusted anchor is too stale
	// (e.g. a re-attack before a fresh quiet window completed), the
	// replay error would exceed the current estimate's error; in that
	// case the reconstructors keep the estimate and only isolation
	// applies.
	anchorFresh := false
	if rec, ok := p.recorder.LatestTrusted(); ok {
		anchorFresh = t-rec.T <= 2*p.cfg.WindowSec+5
	}
	// On a rapid re-entry (e.g. an intermittent or sub-threshold attack
	// cycling the alert) the live estimate — maintained through the
	// previous episode — is more accurate than a long open-loop replay
	// from the same old anchor; keep it and only isolate.
	if p.lastExit > 0 && t-p.lastExit < 10 {
		anchorFresh = false
	}
	p.comp.Reconstruct.Seed(t, meas, anchorFresh)

	p.fsm.Transition(p.ticks, ModeRecovering, telemetry.StageReconstruct)
	p.recoveryActivations++
	p.recoveryStart = t
	p.diagUnionUntil = t + 0.3
	p.endEdgeSeen = false
	p.quietSince = t
	p.residQuietSince = 0
	p.sensorQuiet = [sensors.NumTypes + 1]float64{}
	p.tel.RecoveryEngaged(p.ticks, p.recoveryDetail())
}

// widenDiagnosis re-runs diagnosis during the settling window and widens
// the isolated set (and re-seeds reconstruction) when further sensors
// are implicated.
func (p *Pipeline) widenDiagnosis(t float64, meas *sensors.PhysState) {
	p.chargeDiagnosis()
	p.tel.QuietDiagnosisPass()
	extra := p.diagnoser.Diagnose()
	grew := false
	for _, typ := range sensors.AllTypes() {
		if extra.Has(typ) && !p.compromised.Has(typ) {
			p.compromised.Add(typ)
			grew = true
		}
	}
	if grew {
		p.lastDiagnosis = p.compromised
		p.tel.Event(p.ticks, telemetry.KindDiagnosis, "widened isolated="+p.compromised.String())
		p.widenReconstruction(t, meas)
	}
}

// triggerDetail renders the detector's alert attribution when the
// detector exposes one (the residual+CUSUM detector does).
func (p *Pipeline) triggerDetail() string {
	type triggered interface{ Trigger() detect.Trigger }
	if d, ok := p.detector.(triggered); ok {
		return d.Trigger().String()
	}
	return ""
}

// diagnosisDetail renders a diagnosis verdict for the event trace: the
// per-sensor marginals when the diagnoser exposes them (the FG diagnoser
// does), else just the implicated set.
func (p *Pipeline) diagnosisDetail(diagnosed sensors.TypeSet) string {
	type verdicts interface {
		Verdicts() []diagnosis.SensorVerdict
	}
	d, ok := p.diagnoser.(verdicts)
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
func (p *Pipeline) recoveryDetail() string {
	return p.strategy.String() + "/" + p.comp.Recover.Describe(p.compromised) +
		" isolated=" + p.compromised.String()
}

// revalidateSensors re-admits isolated sensors whose channels have all
// stayed within 0.7δ of the internal estimate for 2 s. It runs every
// recovery tick after the first second, so it visits the isolated set
// through AllTypes and Has (the members of List, in its order) rather than
// materializing List.
func (p *Pipeline) revalidateSensors(t float64, meas *sensors.PhysState) {
	var estPS, resid sensors.PhysState
	p.expandPS(&estPS, p.filter.Estimate())
	sensors.AbsDiffInto(&resid, meas, &estPS)
	for _, typ := range sensors.AllTypes() {
		if !p.compromised.Has(typ) {
			continue
		}
		quiet := true
		for _, idx := range sensors.StatesOf(typ) {
			if d := p.cfg.Delta[idx]; d > 0 && resid[idx] > 0.7*d {
				quiet = false
				break
			}
		}
		if !quiet {
			p.sensorQuiet[typ] = 0
			continue
		}
		if floats.Zero(p.sensorQuiet[typ]) {
			p.sensorQuiet[typ] = t
			continue
		}
		if t-p.sensorQuiet[typ] >= 2.0 {
			p.readmit(typ)
		}
	}
}

// readmit returns an isolated sensor to the fusion and records the event.
// It runs once per re-admission, not per tick.
func (p *Pipeline) readmit(typ sensors.Type) {
	p.compromised.Remove(typ)
	p.sensorQuiet[typ] = 0
	p.lastDiagnosis = p.compromised
	p.tel.SensorReadmitted(p.ticks, typ.String())
}

// exitRecovery hands control back to the nominal autopilot (Fig. 3: "once
// the attack subsides ... the recovery mode is turned off"). The fusion is
// re-seeded from the now-trusted live sensors, and detection is granted a
// short re-acquisition grace period so that the recovery estimate's
// residual drift is not itself flagged as a fresh attack.
func (p *Pipeline) exitRecovery(t float64, meas *sensors.PhysState) {
	wasCompromised := p.compromised
	p.fsm.Transition(p.ticks, ModeExiting, telemetry.StageRecoveryMonitor)
	p.compromised = 0
	p.lastExit = t
	p.recorder.Resume(t)
	p.autopilot.Reset()
	p.recoveryCtl.Reset()
	p.detector.Reset()
	p.diagnoser.Reset()
	p.graceUntil = t + 3.0
	p.tel.RecoveryExited(p.ticks, "was-isolated="+wasCompromised.String())

	// Snap the previously isolated channels back onto the live sensors —
	// but only channels whose measurement is now plausibly consistent with
	// the internal estimate (within 3δ). A channel still showing a gross
	// residual means the exit may be premature for that sensor; keeping
	// the dead-reckoned estimate there avoids snapping onto a bias that
	// has not actually ended, and the detector will re-alert after grace.
	est := p.filter.State()
	plausible := func(idx sensors.StateIndex, estVal float64) bool {
		d := p.cfg.Delta[idx]
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
		if p.cfg.Profile.IsQuad() {
			est.Z, est.VZ = meas[sensors.SZ], meas[sensors.SVZ]
		}
	}
	if wasCompromised.Has(sensors.Baro) && p.cfg.Profile.IsQuad() && plausible(sensors.SBaroAlt, est.Z) {
		est.Z = meas[sensors.SBaroAlt]
	}
	if wasCompromised.Has(sensors.Mag) {
		est.Yaw = ekf.MagYaw(meas)
	}
	if wasCompromised.Has(sensors.Gyro) && p.cfg.Profile.IsQuad() {
		est.Roll, est.Pitch, est.Yaw = meas[sensors.SRoll], meas[sensors.SPitch], meas[sensors.SYaw]
		est.WRoll, est.WPitch, est.WYaw = meas[sensors.SWRoll], meas[sensors.SWPitch], meas[sensors.SWYaw]
	}
	p.filter.SetState(est)
	p.shadow = est
	p.alertPrev = false
	p.fsm.Transition(p.ticks, ModeNominal, telemetry.StageControl)
}

// stepShadowStrapdown advances the shadow one tick under the last input:
// attitude and rates by the dynamics model, velocity by integrating the
// measured acceleration (which sees the wind), position by integrating
// the velocity. The measured acceleration drives the integration only
// while it is itself consistent with the model-implied acceleration
// within δ — a biased accelerometer (e.g. persisting across a premature
// recovery exit) falls back to the model and implicates only its own
// channel. The step runs in place, so the strapdown channels are derived
// from the previous shadow before the model step overwrites it.
func (p *Pipeline) stepShadowStrapdown(meas *sensors.PhysState, dt float64) {
	s := &p.shadow
	a := p.modelAccel(s, &p.lastInput)
	ok := func(idx sensors.StateIndex, modelA float64) bool {
		d := p.cfg.Delta[idx]
		diff := meas[idx] - modelA
		return d <= 0 || (diff < d && diff > -d)
	}
	strapdown := ok(sensors.SAX, a[0]) && ok(sensors.SAY, a[1]) && ok(sensors.SAZ, a[2])
	var vx, vy, vz, x, y, z float64
	if strapdown {
		vx = s.VX + meas[sensors.SAX]*dt
		vy = s.VY + meas[sensors.SAY]*dt
		vz = s.VZ + meas[sensors.SAZ]*dt
		x = s.X + vx*dt
		y = s.Y + vy*dt
		z = s.Z + vz*dt
	}
	p.step(s, s, p.lastInput, dt)
	if strapdown {
		s.VX, s.VY, s.VZ = vx, vy, vz
		s.X, s.Y, s.Z = x, y, z
	}
	if s.Z < 0 {
		s.Z = 0
	}
}

// isAngularIdx reports whether a PS channel is an Euler angle.
func isAngularIdx(i sensors.StateIndex) bool {
	return i == sensors.SRoll || i == sensors.SPitch || i == sensors.SYaw
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
func (p *Pipeline) anchorShadow(dt float64) {
	const (
		lambdaPos = 0.1
		lambdaVel = 0.3
		lambdaAtt = 2.0
	)
	gp, gv, ga := lambdaPos*dt, lambdaVel*dt, lambdaAtt*dt
	est := p.filter.Estimate()
	p.shadow.X += gp * (est.X - p.shadow.X)
	p.shadow.Y += gp * (est.Y - p.shadow.Y)
	p.shadow.Z += gp * (est.Z - p.shadow.Z)
	p.shadow.VX += gv * (est.VX - p.shadow.VX)
	p.shadow.VY += gv * (est.VY - p.shadow.VY)
	p.shadow.VZ += gv * (est.VZ - p.shadow.VZ)
	p.shadow.Roll = vehicle.WrapAngle(p.shadow.Roll + ga*vehicle.WrapAngle(est.Roll-p.shadow.Roll))
	p.shadow.Pitch = vehicle.WrapAngle(p.shadow.Pitch + ga*vehicle.WrapAngle(est.Pitch-p.shadow.Pitch))
	p.shadow.Yaw = vehicle.WrapAngle(p.shadow.Yaw + ga*vehicle.WrapAngle(est.Yaw-p.shadow.Yaw))
	p.shadow.WRoll += ga * (est.WRoll - p.shadow.WRoll)
	p.shadow.WPitch += ga * (est.WPitch - p.shadow.WPitch)
	p.shadow.WYaw += ga * (est.WYaw - p.shadow.WYaw)
}

// expandPS expands a rigid-body state — the shadow reference or the
// fused estimate — into the full PS vector in *dst, under the last
// control input: model-implied acceleration, field from yaw, altitude
// from z.
func (p *Pipeline) expandPS(dst *sensors.PhysState, s *vehicle.State) {
	sensors.TruePhysStateInto(dst, s, p.modelAccel(s, &p.lastInput), sensors.BodyField(s.Yaw))
}

// modelAccel returns the model-implied translational acceleration at
// state s under input u.
func (p *Pipeline) modelAccel(s *vehicle.State, u *vehicle.Input) [3]float64 {
	var d vehicle.State
	prof := &p.cfg.Profile
	if prof.IsQuad() {
		prof.Quad.DerivativeInto(&d, s, u, &vehicle.Wind{})
		return [3]float64{d.VX, d.VY, d.VZ}
	}
	prof.Rover.DerivativeInto(&d, s, u, &vehicle.Wind{})
	return [3]float64{d.VX, d.VY, 0}
}
