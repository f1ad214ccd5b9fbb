package reconstruct

import (
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/ekf"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// fullWindow records 10 s of a quadcopter hovering at 10 m, or a rover
// driving straight, with 5-s windows at dt 0.01: the trusted window ends
// at 4.99 s, and the 500 records after its anchor fill the current window.
func fullWindow(b *testing.B, prof vehicle.Profile) *checkpoint.Recorder {
	b.Helper()
	const dt = 0.01
	rec := checkpoint.NewRecorder(5)
	step := ekf.StepForProfile(prof)
	var s vehicle.State
	u := vehicle.Input{Thrust: 0.5}
	if prof.IsQuad() {
		s.Z = 10
		u.Thrust = prof.Quad.HoverThrust()
	}
	for i := 0; i < 1000; i++ {
		step(&s, &s, u, dt)
		ps := sensors.TruePhysState(s, [3]float64{}, sensors.BodyField(s.Yaw))
		rec.Record(float64(i)*dt, &ps, &s, u)
	}
	if _, records, ok := rec.Replay(); !ok || len(records) != 500 {
		b.Fatalf("window holds %d records (trusted %v), want 500", len(records), ok)
	}
	return rec
}

// BenchmarkRollForward times one reconstruction roll-forward, the replay
// every recovery seeding runs, over a full 5-s window of 500 records with
// GPS compromised: the replay filter runs the private covariance
// recursion on every record.
func BenchmarkRollForward(b *testing.B) {
	for _, name := range []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover} {
		b.Run(string(name), func(b *testing.B) {
			prof := vehicle.MustProfile(name)
			rec := fullWindow(b, prof)
			rc := New(prof, 0.01)
			gps := sensors.NewTypeSet(sensors.GPS)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := rc.RollForward(rec, gps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
