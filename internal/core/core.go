// Package core implements the DeLorean framework (Fig. 3/4, Algorithm 1)
// as a staged defense pipeline: attack detection, attack diagnosis,
// historic-states checkpointing, state reconstruction, attack recovery
// and recovery exit, wired into one feedback control loop by a Pipeline
// (pipeline.go) that sequences them with an explicit recovery-mode
// finite-state machine (fsm.go). The defense strategies the paper
// compares — DeLorean, LQR-O worst-case recovery, SSR, PID-Piper, and an
// undefended baseline — are rows of a strategy registry (strategy.go):
// which sensors a strategy isolates, how it seeds the recovery estimate,
// which control law flies the episode, and three episode-shape flags.
//
// Each control tick the pipeline:
//
//  1. fuses the sensor-derived states into the EKF estimate, masking any
//     sensors diagnosis has isolated;
//  2. advances the shadow reference — an attack-free evolution of the
//     physical states (attitude by the dynamics model, translation
//     dead-reckoned from measured acceleration) weakly anchored to the
//     fused estimate while no alert is active;
//  3. runs the attack detector on the (reference, observed) state pair;
//  4. on an alert, stops checkpoint recording, runs diagnosis, and — if
//     sensors are implicated — isolates them, reconstructs the state
//     vector X'(t_a) and switches the loop onto the recovery controller
//     (Nominal → Suspicious → Diagnosing → Recovering in the FSM);
//  5. flies the recovery controller — the nominal autopilot when position
//     feedback survives, the conservative LQR otherwise — re-validating
//     isolated sensors as it goes (Revalidating), and hands the loop back
//     (Exiting → Nominal) when the attack demonstrably subsides.
package core

import (
	"repro/internal/detect"
	"repro/internal/diagnosis"
	"repro/internal/ekf"
	"repro/internal/sensors"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// Config assembles a pipeline.
type Config struct {
	Profile vehicle.Profile
	// DT is the control period in seconds.
	DT float64
	// Delta are the calibrated per-state diagnosis thresholds (Table 3).
	Delta diagnosis.Delta
	// WindowSec is the checkpoint window length (Table 3 WS column).
	WindowSec float64
	// Diagnoser overrides the diagnosis technique (defaults to the
	// DeLorean factor-graph diagnoser); the Table 4 comparison plugs the
	// RA baselines in here.
	Diagnoser diagnosis.Diagnoser
	// Detector overrides the attack detector (defaults to the PID-Piper
	// style residual+CUSUM detector); the FP experiment plugs a
	// detect.ForcedAlert in here.
	Detector detect.Detector
	// Telemetry receives the mission's pipeline events and counters. Nil
	// disables event recording (a nil Recorder is a valid no-op sink).
	Telemetry *telemetry.Recorder
	// Shared, when non-nil, supplies the read-only per-(profile, dt)
	// caches — quad recovery LQR gain, EKF covariance schedule — built
	// once per process and referenced by every mission. Must match
	// Profile.Name and DT; results are bit-identical with or without it.
	Shared *Shared
}

// maxRecoverySec caps a recovery episode (the backstop exit).
const maxRecoverySec = 40

// detectThreshFromDelta derives the detector's residual thresholds from
// the diagnosis δ values, monitoring every physical state (all-zero δ
// falls back to detect.DefaultThresholds). Monitoring the full PS vector
// is what lets the detector catch attacks on sensors whose effect the
// fused estimate partially absorbs (accelerometer bias hidden by GPS
// corrections, magnetometer heading rotations slewing the yaw estimate)
// *before* the corrupted fusion drags the attack-free reference along.
func detectThreshFromDelta(delta diagnosis.Delta) detect.Thresholds {
	var th detect.Thresholds
	for _, idx := range sensors.AllStates() {
		th[idx] = delta[idx]
	}
	if th == (detect.Thresholds{}) {
		th = detect.DefaultThresholds()
	}
	return th
}

// approxModel returns SSR's learned model: the profile's true dynamics
// with fixed parameter errors standing in for imperfect learning (the
// "approximation error" the paper identifies as SSR's weakness, §3.1).
// A quadcopter's mass is 6% high, its drag 40% low and its roll and
// pitch inertias 10% low; a rover's drag is 40% low.
func approxModel(p vehicle.Profile) ekf.StepFunc {
	if p.IsQuad() {
		q := p.Quad
		q.Mass *= 1.06
		q.DragCoef *= 0.6
		q.IX *= 0.9
		q.IY *= 0.9
		return ekf.QuadStep(q)
	}
	r := p.Rover
	r.DragCoef *= 0.6
	return ekf.RoverStep(r)
}
