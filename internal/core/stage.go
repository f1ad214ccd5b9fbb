// The staged defense pipeline's pluggable surface.
//
// The paper's thesis is that detection, diagnosis, checkpointing,
// reconstruction, and recovery are distinct concerns composing into one
// onboard framework. This file states that decomposition as code: six
// small stage interfaces, one per concern, plus the Composition that a
// strategy registry entry assembles from them. The pipeline's tick loop
// (pipeline.go) knows only these interfaces; per-strategy behavior lives
// entirely in the stage implementations (stage_*.go), so adding a
// strategy — SpecGuard-style recovery, a Bayesian diagnoser — is a new
// registry entry and stage set, not another branch through the tick path.
package core

import (
	"repro/internal/checkpoint"
	"repro/internal/detect"
	"repro/internal/diagnosis"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// Detector is the attack-detection stage: it watches (reference,
// observed) state pairs and latches an alert. The residual+CUSUM
// detector of internal/detect is the default implementation; the FP
// experiments plug a forced-alert detector in.
type Detector = detect.Detector

// Diagnoser is the triage stage: it accumulates (reference, observed)
// observations and, on an alert, turns detector suspicion into an
// isolation verdict. Implementations wrap a diagnosis technique
// (internal/diagnosis) with the strategy's isolation policy.
type Diagnoser interface {
	// Observe feeds one (reference, observed) sample into the technique's
	// observation window. The vectors come by pointer: a call through an
	// interface copies every value argument.
	Observe(ref, meas *sensors.PhysState)
	// Reference selects which reference the technique diagnoses against
	// (the attack-free shadow or the fused estimate).
	Reference() diagnosis.Reference
	// Triage runs one inference pass. diagnosed is the technique's raw
	// verdict (empty = masked false positive); isolate is the sensor set
	// the strategy masks for it.
	Triage() (diagnosed, isolate sensors.TypeSet)
	// Reset clears accumulated observations.
	Reset()
}

// Checkpointer is the historic-states stage: it records trusted history
// while no alert is active and serves the latest trusted anchor for
// reconstruction. *checkpoint.Recorder is the canonical implementation
// (asserted below); the pipeline holds it concretely because the replay
// reconstructors iterate its ring buffer directly.
type Checkpointer interface {
	// Record appends one full record (measurement, estimate, input).
	Record(t float64, ps *sensors.PhysState, est *vehicle.State, u vehicle.Input)
	// RecordInput retains the control input even while recording is
	// stopped, letting reconstruction bridge the detection gap.
	RecordInput(t float64, u vehicle.Input)
	// OnAlert stops trusted recording (Fig. 6b).
	OnAlert()
	// Resume restarts trusted recording after a masked alert or a
	// recovery exit.
	Resume(t float64)
	// LatestTrusted returns the most recent pre-alert record.
	LatestTrusted() (checkpoint.Record, bool)
	// MemoryBytes reports the buffer footprint (Table 3).
	MemoryBytes() int
}

var _ Checkpointer = (*checkpoint.Recorder)(nil)

// Reconstructor is the state-reconstruction stage: at recovery engagement
// (and on widened verdicts during the settling window) it seeds the
// recovery-mode estimate — from checkpointed history for the
// checkpoint-based strategies, from the live estimate for the tolerating
// ones.
type Reconstructor interface {
	// Seed installs the recovery starting estimate. anchorFresh reports
	// whether the latest trusted checkpoint is recent enough for a replay
	// to beat the live estimate.
	Seed(t float64, meas *sensors.PhysState, anchorFresh bool)
}

// RecoveryController is the recovery-mode control stage: it produces the
// control action while recovery owns the loop.
type RecoveryController interface {
	// Update flies one recovery-mode control period.
	Update(t float64, target mission.Waypoint) vehicle.Input
	// Describe names the controller that will fly an episode with the
	// given isolated set, for the recovery-engaged telemetry event.
	Describe(isolated sensors.TypeSet) string
}

// ExitPolicy is the subsidence-monitoring stage: it decides when the
// attack has demonstrably ended and control can be handed back.
type ExitPolicy interface {
	// ShouldExit reports whether to leave recovery this tick.
	ShouldExit(t float64, meas *sensors.PhysState) bool
}

// Composition is a defense strategy stated declaratively: the stage
// implementations the pipeline wires together, plus the episode-shape
// flags the stages share. A strategy registry entry (strategy.go)
// produces exactly one of these at New; the tick path dispatches through
// it and never branches on the Strategy value again.
type Composition struct {
	// Diagnose is the triage stage. Nil for the undefended baseline:
	// alerts are observed (detection latency is a detector property) but
	// never acted on.
	Diagnose Diagnoser
	// Reconstruct seeds the recovery estimate at engagement.
	Reconstruct Reconstructor
	// Recover flies the recovery episode.
	Recover RecoveryController
	// Exit decides when the episode ends.
	Exit ExitPolicy

	// Revalidate enables the per-sensor re-validation loop and with it
	// the ModeRevalidating FSM state (targeted recovery only).
	Revalidate bool
	// UnionWindow enables the post-engagement settling window in which
	// diagnosis keeps running and may widen the isolated set (slow
	// sensors reveal their bias only at their next sample).
	UnionWindow bool
	// VirtualBelieved serves the virtual-sensor model state as the
	// believed state while recovery is engaged (SSR flies — and reports —
	// its approximate-model state, not the fused estimate).
	VirtualBelieved bool
}
