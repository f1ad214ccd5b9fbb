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
// at the origin — with a truthful measurement stream. With shared set it
// gets freshly built shared caches, as every engine-run mission gets the
// process-wide ones; without, it runs the private EKF covariance
// recursion.
func benchFramework(b testing.TB, name vehicle.ProfileName, shared bool) (*core.Pipeline, sensors.PhysState, mission.Waypoint) {
	b.Helper()
	prof := vehicle.MustProfile(name)
	cfg := core.Config{
		Profile:   prof,
		DT:        0.01,
		Delta:     core.DefaultDelta(prof),
		WindowSec: 5,
	}
	if shared {
		sh, err := core.NewShared(prof, cfg.DT)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Shared = sh
	}
	fw, err := core.New(cfg, core.StrategyDeLorean)
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

// BenchmarkTick times the nominal tick of each vehicle class, on the
// private covariance recursion and on freshly built shared caches. A
// copter's shared schedule reaches its fixpoint within a few thousand
// ticks and then serves every tick from one step. A rover's never does,
// so every shared rover iteration extends the schedule: that case times
// schedule growth (ROADMAP item 2), and its memory grows by about 1 KB per
// iteration.
func BenchmarkTick(b *testing.B) {
	for _, name := range []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover} {
		for _, shared := range []bool{false, true} {
			sub := string(name) + "/private"
			if shared {
				sub = string(name) + "/shared"
			}
			b.Run(sub, func(b *testing.B) {
				fw, meas, target := benchFramework(b, name, shared)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fw.Tick(float64(i)*0.01, meas, target)
				}
			})
		}
	}
}
