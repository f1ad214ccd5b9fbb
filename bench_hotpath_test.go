package repro_test

// BenchmarkMissionShort runs one complete quiet mission per iteration —
// the whole-mission layer of the micro-benchmarks.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

func BenchmarkMissionShort(b *testing.B) {
	p := vehicle.MustProfile(vehicle.ArduCopter)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Profile:   p,
			Plan:      mission.NewStraight(40, 10),
			Strategy:  core.StrategyDeLorean,
			WindowSec: 15,
			WindMean:  1.0,
			WindGust:  0.5,
			Seed:      1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Success {
			b.Fatal("benchmark mission failed; hot-path numbers would be meaningless")
		}
	}
}
