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
	return benchPipeline(b, name, benchShared(b, name, shared))
}

// benchShared returns freshly built shared caches for the profile at the
// benchmark's tick period if shared is set, and nil otherwise.
func benchShared(b testing.TB, name vehicle.ProfileName, shared bool) *core.Shared {
	b.Helper()
	if !shared {
		return nil
	}
	sh, err := core.NewShared(vehicle.MustProfile(name), 0.01)
	if err != nil {
		b.Fatal(err)
	}
	return sh
}

// benchPipeline is benchFramework on the given shared caches (nil for
// none).
func benchPipeline(b testing.TB, name vehicle.ProfileName, sh *core.Shared) (*core.Pipeline, sensors.PhysState, mission.Waypoint) {
	b.Helper()
	prof := vehicle.MustProfile(name)
	cfg := core.Config{
		Profile:   prof,
		DT:        0.01,
		Delta:     core.DefaultDelta(prof),
		WindowSec: 5,
		Shared:    sh,
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

// tickWarm and tickSpan fix what BenchmarkTick times, whatever its b.N:
// ticks tickWarm to tickWarm+tickSpan−1 of a mission, past the growth of
// its two checkpoint buffers, each span on a fresh pipeline that flies its
// first tickWarm ticks with the timer stopped.
const (
	tickWarm = 1100
	tickSpan = 1000
)

// BenchmarkTick times the nominal tick of each vehicle class, on the
// private covariance recursion and on shared caches. A case's shared
// caches are built once and walked past the EKF schedule's fixpoint
// (cycle 1,330 on ArduCopter, 1,192 on ArduRover) by one untimed span, so
// every timed shared tick reads a built step.
func BenchmarkTick(b *testing.B) {
	for _, name := range []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover} {
		for _, shared := range []bool{false, true} {
			sub := string(name) + "/private"
			if shared {
				sub = string(name) + "/shared"
			}
			b.Run(sub, func(b *testing.B) {
				sh := benchShared(b, name, shared)
				fw, meas, target := benchPipeline(b, name, sh)
				run := func(from, to int) {
					for i := from; i < to; i++ {
						fw.Tick(float64(i)*0.01, meas, target)
					}
				}
				run(0, tickWarm+tickSpan)
				b.ReportAllocs()
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					i := n % tickSpan
					if i == 0 {
						b.StopTimer()
						fw, _, _ = benchPipeline(b, name, sh)
						run(0, tickWarm)
						b.StartTimer()
					}
					fw.Tick(float64(tickWarm+i)*0.01, meas, target)
				}
			})
		}
	}
}
