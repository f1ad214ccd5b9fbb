package core_test

// Benchmark for the full pipeline tick — the steady-state hot path every
// mission second spends 100 iterations in.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// benchFramework returns an initialized DeLorean pipeline for the named
// profile holding station — a quadcopter hovering at 10 m, a rover parked
// at the origin — with a truthful measurement stream.
func benchFramework(b testing.TB, name vehicle.ProfileName) (*core.Pipeline, sensors.PhysState, mission.Waypoint) {
	b.Helper()
	prof := vehicle.MustProfile(name)
	fw, err := core.New(core.Config{
		Profile:   prof,
		DT:        0.01,
		Delta:     core.DefaultDelta(prof),
		WindowSec: 5,
	}, core.StrategyDeLorean)
	if err != nil {
		b.Fatal(err)
	}
	var start vehicle.State
	if prof.IsQuad() {
		start.Z = 10
	}
	fw.Init(start)
	meas := sensors.TruePhysState(start, [3]float64{}, sensors.BodyField(0))
	return fw, meas, mission.Waypoint{Z: start.Z}
}

// BenchmarkTick times the nominal tick of each vehicle class.
func BenchmarkTick(b *testing.B) {
	for _, name := range []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover} {
		b.Run(string(name), func(b *testing.B) {
			fw, meas, target := benchFramework(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw.Tick(float64(i)*0.01, meas, target)
			}
		})
	}
}
