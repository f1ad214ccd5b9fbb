// Package reconstruct implements State Reconstruction (§4.3): after
// diagnosis identifies the targeted sensors, the RV's state vector X'(t_a)
// is rebuilt by (1) replaying the dynamics model forward from the latest
// trustworthy checkpoint x_{t_s} over the recorded control inputs —
// fusing the recorded measurements of the *uncompromised* sensors along
// the way ("State Reconstructor utilizes measurements from uncompromised
// sensors and historical states for compromised sensors", §4) — and
// (2) keeping the live states x_c(t_a) from the uncompromised sensors:
//
//	X'(t_a) = [x_c(t_a), x_r(t_a)]
//
// The reconstructed vector is the initial system state of recovery and —
// when only a subset of sensors is attacked — preserves real-time sensor
// feedback, which is what enables targeted recovery.
package reconstruct

import (
	"errors"

	"repro/internal/checkpoint"
	"repro/internal/ekf"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// ErrNoTrustedState is returned when no attack-free checkpoint window is
// available (the RV was attacked before any historic state could be
// recorded, violating the §2.3 attack-free-start assumption).
var ErrNoTrustedState = errors.New("reconstruct: no trusted historic state available")

// Reconstructor rebuilds RV state vectors from historic states and live
// uncompromised sensors.
type Reconstructor struct {
	profile vehicle.Profile
	step    ekf.StepFunc
	dt      float64
}

// ReplayStats describes one roll-forward: the trusted anchor time the
// replay started from and how many recorded control periods it stepped
// through. Telemetry attributes reconstruction cost by Records.
type ReplayStats struct {
	// AnchorT is the checkpoint timestamp the replay anchored to.
	AnchorT float64
	// Records is the number of recorded (input, measurement) records
	// replayed through the dynamics model.
	Records int
}

// New returns a reconstructor for the profile's dynamics model at the
// given control period.
func New(p vehicle.Profile, dt float64) *Reconstructor {
	return &Reconstructor{profile: p, step: ekf.StepForProfile(p), dt: dt}
}

// RollForward re-derives the rigid-body state at the recovery activation
// time t_a from the latest trustworthy checkpoint, replaying the recorded
// control inputs through the dynamics model (x_r(t_{s+1}) = f(x_{t_s},
// u_{t_s}), iterated to t_a) and fusing the recorded measurements of the
// sensors NOT in compromised along the way. With every sensor
// compromised (the LQR-O worst case) this degrades to the pure open-loop
// model replay.
func (r *Reconstructor) RollForward(rec *checkpoint.Recorder, compromised sensors.TypeSet) (vehicle.State, ReplayStats, error) {
	anchor, ok := rec.LatestTrusted()
	if !ok {
		return vehicle.State{}, ReplayStats{}, ErrNoTrustedState
	}
	clean := sensors.NewTypeSet()
	for _, t := range sensors.AllTypes() {
		if !compromised.Has(t) {
			clean.Add(t)
		}
	}

	stats := ReplayStats{AnchorT: anchor.T}
	f := ekf.New(r.profile)
	f.Init(anchor.Est)
	records := rec.RecordsSince(anchor.T)
	for i := range records {
		record := &records[i]
		stats.Records++
		if record.InputOnly || clean.Len() == 0 {
			// No usable measurements: open-loop model step.
			f.Predict(record.Input, r.dt)
			continue
		}
		f.PredictHybrid(record.Input, &record.PS, clean, r.dt)
		// Correction errors cannot occur with a diagonal positive R.
		_ = f.Correct(&record.PS, clean)
	}
	return f.State(), stats, nil
}

// Reconstruct builds X'(t_a): states of compromised sensors come from the
// replayed model estimate; states of uncompromised sensors come from the
// live sensor-derived vector. The returned PS vector and rigid-body state
// are the initial system state handed to the recovery controller.
func (r *Reconstructor) Reconstruct(
	rec *checkpoint.Recorder,
	live sensors.PhysState,
	compromised sensors.TypeSet,
) (sensors.PhysState, vehicle.State, ReplayStats, error) {
	rolled, stats, err := r.RollForward(rec, compromised)
	if err != nil {
		return sensors.PhysState{}, vehicle.State{}, ReplayStats{}, err
	}
	// Model-derived PS channels for the compromised sensors.
	modelPS := sensors.TruePhysState(rolled, [3]float64{}, sensors.BodyField(rolled.Yaw))
	reconstructed := sensors.MergeStates(live, modelPS, compromised)

	// The rigid-body state handed to recovery: live channels where their
	// sensor is clean, replayed channels where compromised.
	hybrid := reconstructed.VehicleState()
	return reconstructed, hybrid, stats, nil
}
