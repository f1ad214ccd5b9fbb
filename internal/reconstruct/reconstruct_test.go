package reconstruct

import (
	"errors"
	"math"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

func hoverRecorder(t *testing.T, prof vehicle.Profile, seconds float64, dt float64) (*checkpoint.Recorder, vehicle.State) {
	t.Helper()
	r := checkpoint.NewRecorder(1.0)
	s := vehicle.State{Z: 10}
	u := vehicle.Input{Thrust: prof.Quad.HoverThrust()}
	for tm := 0.0; tm < seconds; tm += dt {
		s = prof.Quad.Step(s, u, vehicle.Wind{}, dt)
		ps := sensors.TruePhysState(s, [3]float64{}, sensors.BodyField(s.Yaw))
		r.Record(tm, &ps, &s, u)
	}
	return r, s
}

func TestRollForwardHover(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	dt := 0.01
	rec, truth := hoverRecorder(t, prof, 3.0, dt)
	rc := New(prof, dt)
	got, stats, err := rc.RollForward(rec, sensors.NewTypeSet(sensors.AllTypes()...))
	if err != nil {
		t.Fatalf("RollForward: %v", err)
	}
	if math.Abs(got.Z-truth.Z) > 0.1 {
		t.Errorf("rolled z = %v, truth %v", got.Z, truth.Z)
	}
	if stats.Records <= 0 {
		t.Errorf("replay stats records = %d, want > 0", stats.Records)
	}
}

func TestRollForwardNoTrusted(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	rc := New(prof, 0.01)
	empty := checkpoint.NewRecorder(1.0)
	if _, _, err := rc.RollForward(empty, sensors.NewTypeSet()); !errors.Is(err, ErrNoTrustedState) {
		t.Errorf("err = %v, want ErrNoTrustedState", err)
	}
}

func TestReconstructMergesCleanAndModelStates(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	dt := 0.01
	rec, truth := hoverRecorder(t, prof, 3.0, dt)
	rc := New(prof, dt)

	// Live states: GPS spoofed by +40 m, everything else truthful.
	live := sensors.TruePhysState(truth, [3]float64{}, sensors.BodyField(truth.Yaw))
	live[sensors.SX] += 40

	ps, hybrid, _, err := rc.Reconstruct(rec, live, sensors.NewTypeSet(sensors.GPS))
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	// The GPS x channel must come from the model (≈ truth), not the spoof.
	if math.Abs(ps[sensors.SX]-truth.X) > 1 {
		t.Errorf("reconstructed x = %v, want ≈ %v (spoof was %v)", ps[sensors.SX], truth.X, live[sensors.SX])
	}
	// Clean channels pass through live.
	if ps[sensors.SBaroAlt] != live[sensors.SBaroAlt] {
		t.Errorf("clean baro channel altered: %v", ps[sensors.SBaroAlt])
	}
	if math.Abs(hybrid.X-truth.X) > 1 {
		t.Errorf("hybrid x = %v, want ≈ %v", hybrid.X, truth.X)
	}
}

func TestReconstructAllCompromisedIsWorstCase(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	dt := 0.01
	rec, truth := hoverRecorder(t, prof, 3.0, dt)
	rc := New(prof, dt)

	var garbage sensors.PhysState
	for i := range garbage {
		garbage[i] = 1e6
	}
	ps, _, _, err := rc.Reconstruct(rec, garbage, sensors.NewTypeSet(sensors.AllTypes()...))
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	// All channels replaced by the model: nothing from the garbage vector
	// survives.
	if math.Abs(ps[sensors.SZ]-truth.Z) > 0.5 {
		t.Errorf("worst-case reconstruction z = %v, want ≈ %v", ps[sensors.SZ], truth.Z)
	}
	for i, v := range ps {
		if v > 1e5 {
			t.Fatalf("garbage leaked through channel %d: %v", i, v)
		}
	}
}

func TestReconstructNoneCompromisedIsLive(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	dt := 0.01
	rec, truth := hoverRecorder(t, prof, 3.0, dt)
	rc := New(prof, dt)
	live := sensors.TruePhysState(truth, [3]float64{1, 2, 3}, sensors.BodyField(truth.Yaw))
	ps, _, _, err := rc.Reconstruct(rec, live, sensors.NewTypeSet())
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if ps != live {
		t.Error("with no compromised sensors, reconstruction should be the live vector")
	}
}

func TestRollForwardSpansDetectionGap(t *testing.T) {
	// Records stop (alert) and the roll-forward must bridge the gap using
	// inputs recorded during the corrupted window.
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	dt := 0.01
	r := checkpoint.NewRecorder(1.0)
	s := vehicle.State{Z: 10}
	u := vehicle.Input{Thrust: prof.Quad.HoverThrust()}
	var tm float64
	for tm = 0; tm < 2.5; tm += dt {
		s = prof.Quad.Step(s, u, vehicle.Wind{}, dt)
		ps := sensors.TruePhysState(s, [3]float64{}, sensors.BodyField(s.Yaw))
		r.Record(tm, &ps, &s, u)
	}
	r.OnAlert()
	// Truth keeps evolving during the attack, but the recorder is stopped.
	for ; tm < 3.0; tm += dt {
		s = prof.Quad.Step(s, u, vehicle.Wind{}, dt)
	}
	rc := New(prof, dt)
	got, _, err := rc.RollForward(r, sensors.NewTypeSet(sensors.AllTypes()...))
	if err != nil {
		t.Fatalf("RollForward: %v", err)
	}
	// Hover: roll-forward should still be close to truth despite the gap.
	if math.Abs(got.Z-s.Z) > 0.5 {
		t.Errorf("rolled z = %v, truth %v", got.Z, s.Z)
	}
}
