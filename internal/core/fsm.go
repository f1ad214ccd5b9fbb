package core

import (
	"fmt"
	"strconv"

	"repro/internal/telemetry"
)

// Mode is one state of the pipeline's recovery finite-state machine.
//
// The FSM makes the defense episode's life cycle explicit:
//
//	Nominal ──alert latched──▶ Suspicious ──sensors implicated──▶ Diagnosing
//	   ▲                           │                                  │
//	   │◀──alert cleared (masked)──┘                                  ▼
//	   │                                                         Recovering
//	   │                                                          │      │
//	   │                                     settling window over │      │ subsided /
//	   │                                        (targeted only)   ▼      │ duration cap
//	   │                                                    Revalidating │
//	   │                                                          │      │
//	   └───────────────◀── Exiting ◀──────────────────────────────┴──────┘
//
// Diagnosing and Exiting are transient within-tick states: diagnosis
// implication, state reconstruction, and recovery engagement happen in
// one control period, as do the exit hand-back steps; the FSM passes
// through them so every stage boundary is an observable transition.
type Mode int

// The FSM states.
const (
	// ModeNominal: no alert; the nominal autopilot flies the fused
	// estimate and checkpointing records trusted history.
	ModeNominal Mode = iota + 1
	// ModeSuspicious: the detector's alert is latched but diagnosis has
	// not implicated any sensor — each tick runs a triage pass that
	// either masks the alert (false positive) or implicates sensors.
	ModeSuspicious
	// ModeDiagnosing: diagnosis has implicated sensors this tick; the
	// isolation set is being formed and the state vector reconstructed.
	// Transient: always advances to ModeRecovering within the tick.
	ModeDiagnosing
	// ModeRecovering: the recovery controller owns the loop.
	ModeRecovering
	// ModeRevalidating: recovery continues while isolated sensors are
	// re-validated against the internal estimate and re-admitted once
	// demonstrably clean (targeted recovery only).
	ModeRevalidating
	// ModeExiting: the attack has subsided; fusion is re-seeded from the
	// live sensors and control handed back. Transient: always advances
	// to ModeNominal within the tick.
	ModeExiting
)

// String names the mode as rendered in transition events.
func (m Mode) String() string {
	switch m {
	case ModeNominal:
		return "nominal"
	case ModeSuspicious:
		return "suspicious"
	case ModeDiagnosing:
		return "diagnosing"
	case ModeRecovering:
		return "recovering"
	case ModeRevalidating:
		return "revalidating"
	case ModeExiting:
		return "exiting"
	}
	// strconv.Itoa, unlike fmt, boxes nothing (and interns small values);
	// String sits on the hot transition path.
	return "Mode(" + strconv.Itoa(int(m)) + ")"
}

// Normal reports whether the mode is on the nominal-control side of the
// machine (the nominal autopilot flies; diagnosis may be triaging an
// alert but recovery has not engaged).
func (m Mode) Normal() bool { return m == ModeNominal || m == ModeSuspicious }

// Recovery reports whether the recovery controller owns the loop.
func (m Mode) Recovery() bool { return m == ModeRecovering || m == ModeRevalidating }

// LegalTransition reports whether from→to is an edge of the FSM diagram.
func LegalTransition(from, to Mode) bool {
	switch from {
	case ModeNominal:
		return to == ModeSuspicious
	case ModeSuspicious:
		return to == ModeNominal || to == ModeDiagnosing
	case ModeDiagnosing:
		return to == ModeRecovering
	case ModeRecovering:
		return to == ModeRevalidating || to == ModeExiting
	case ModeRevalidating:
		return to == ModeExiting
	case ModeExiting:
		return to == ModeNominal
	}
	return false
}

// FSM is the pipeline's recovery-mode state machine. Every transition is
// validated against the diagram and emitted to the telemetry recorder as
// one stage-attributed event (when transition tracing is enabled).
type FSM struct {
	mode Mode
	rec  *telemetry.Recorder
}

// NewFSM returns a machine in ModeNominal reporting transitions to rec
// (nil disables reporting).
func NewFSM(rec *telemetry.Recorder) FSM {
	return FSM{mode: ModeNominal, rec: rec}
}

// Mode returns the current state.
func (f *FSM) Mode() Mode { return f.mode }

// Reset snaps the machine back to ModeNominal without a transition
// (mission start; not an FSM edge).
func (f *FSM) Reset() { f.mode = ModeNominal }

// Transition moves the machine to the target state, attributing the
// transition to the pipeline stage that caused it. Illegal transitions
// panic: they are pipeline programming errors, and the executor
// converts panics into mission errors rather than corrupt results.
func (f *FSM) Transition(tick int, to Mode, cause telemetry.Stage) {
	if !LegalTransition(f.mode, to) {
		panic(fmt.Sprintf("core: illegal FSM transition %s->%s (stage %s)", f.mode, to, cause))
	}
	f.rec.ModeTransition(tick, f.mode.String(), to.String(), cause)
	f.mode = to
}
