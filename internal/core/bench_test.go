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

// benchFramework returns an initialized DeLorean pipeline hovering at
// 10 m with a truthful measurement stream.
func benchFramework(b testing.TB) (*core.Pipeline, sensors.PhysState, mission.Waypoint) {
	b.Helper()
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	fw, err := core.New(core.Config{
		Profile:   prof,
		DT:        0.01,
		Delta:     core.DefaultDelta(prof),
		WindowSec: 5,
	}, core.StrategyDeLorean)
	if err != nil {
		b.Fatal(err)
	}
	fw.Init(vehicle.State{Z: 10})
	meas := sensors.TruePhysState(vehicle.State{Z: 10}, [3]float64{}, sensors.BodyField(0))
	return fw, meas, mission.Waypoint{Z: 10}
}

func BenchmarkTick(b *testing.B) {
	fw, meas, target := benchFramework(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw.Tick(float64(i)*0.01, meas, target)
	}
}
