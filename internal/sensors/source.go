package sensors

import "repro/internal/vehicle"

// Tick is the per-tick context the mission loop offers a Source. Sources
// that synthesize measurements from simulated physics (the simulator
// suite) consume the ground-truth fields; sources that replay recorded or
// external streams use only the timestamps. T advances on the fixed
// control-period grid (t += DT from 0), so a replayed mission observes
// bit-identical timestamps to the recording run.
type Tick struct {
	// T is the mission time of this control period; DT its length.
	T, DT float64
	// Truth is the simulator's ground-truth vehicle state.
	Truth vehicle.State
	// TruthAccel is the true translational acceleration (what a perfect
	// accelerometer would measure).
	TruthAccel [3]float64
}

// Reading is one time-aligned sensor frame: the held multi-rate PS
// estimate plus the attack annotations the mission loop and the trace
// format carry alongside it.
type Reading struct {
	// State is the sensor-derived PS estimate: each sensor type refreshes
	// at its own rate and holds its last value between refreshes, so the
	// frame is always aligned to the control-period grid.
	State PhysState
	// AttackActive reports whether an injection is physically reaching the
	// sensors this tick (TP/FP and detection-latency accounting).
	AttackActive bool
	// AttackTargets annotates which sensor types carry an injection this
	// tick (may be empty while AttackActive if the injection is in an
	// off-phase of an intermittent attack).
	AttackTargets TypeSet
}

// Source is the sensor-ingestion seam: the mission loop pulls one Reading
// per control period instead of synthesizing measurements inline. A
// Source is stateful (rate counters, replay cursors, noise rngs) and is
// owned by exactly one mission — parallel campaigns construct one Source
// per job. Implementations: the simulator synthesizer (internal/sim's
// SimSource), recorded-trace replay and record tees (internal/source),
// and the time-aligned multi-stream bus a live feed plugs into
// (internal/source's Bus).
type Source interface {
	// Sample advances the source to tick.T and returns the frame. An
	// error (replay exhaustion, trace desync) abandons the mission.
	Sample(tick Tick) (Reading, error)
	// AttackMounted reports whether the mission carries a sensor-deception
	// attack at all — recorded in the trace header and used for the
	// run report's attacked/benign outcome classification.
	AttackMounted() bool
}
