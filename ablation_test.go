package repro_test

// Ablation benchmarks for the design decisions DESIGN.md §5a calls out.
// Each ablation removes one mechanism and reports the same headline
// metric, so `go test -bench Ablation` shows what each piece buys.

import (
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// ablationMission flies one accel-targeted SDA mission with the given
// detector thresholds and reports whether diagnosis exactly identified
// the target.
func ablationMission(seed int64, th detect.Thresholds) (exact bool, success bool) {
	p := vehicle.MustProfile(vehicle.ArduCopter)
	rng := rand.New(rand.NewSource(seed))
	targets := sensors.NewTypeSet(sensors.Accel)
	sda := attack.New(rng, attack.DefaultParams(), targets, 14, 32)
	var det detect.Detector
	if th != (detect.Thresholds{}) {
		det = detect.NewResidual(th)
	}
	res, err := sim.Run(sim.Config{
		Profile:   p,
		Plan:      mission.NewStraight(60, 10),
		Strategy:  core.StrategyDeLorean,
		WindowSec: 15,
		Detector:  det,
		Attacks:   attack.NewSchedule(sda),
		WindMean:  1.0,
		WindGust:  0.5,
		Seed:      rng.Int63(),
	})
	if err != nil {
		return false, false
	}
	return res.DiagnosisRanDuringAttack && res.DiagnosedDuringAttack == targets, res.Success
}

// positionOnlyThresholds reproduces the ablated detector that monitors
// only the position/velocity/attitude channels (the pre-fix design): an
// accelerometer bias, largely absorbed by GPS corrections, goes
// undetected.
func positionOnlyThresholds(p vehicle.Profile) detect.Thresholds {
	delta := core.DefaultDelta(p)
	var th detect.Thresholds
	for _, idx := range []sensors.StateIndex{
		sensors.SX, sensors.SY, sensors.SZ,
		sensors.SVX, sensors.SVY, sensors.SVZ,
		sensors.SRoll, sensors.SPitch, sensors.SYaw,
	} {
		th[idx] = delta[idx]
	}
	return th
}

// BenchmarkAblationFullChannelDetection measures diagnosis accuracy with
// the full 19-channel detector (the shipped design).
func BenchmarkAblationFullChannelDetection(b *testing.B) {
	var exactN int
	n := 0
	for i := 0; i < b.N; i++ {
		for s := int64(0); s < 4; s++ {
			exact, _ := ablationMission(100+s, detect.Thresholds{}) // default: all channels
			if exact {
				exactN++
			}
			n++
		}
	}
	b.ReportMetric(100*float64(exactN)/float64(n), "exact-diagnosis-%")
}

// BenchmarkAblationPositionOnlyDetection measures the same workload with
// detection restricted to position/velocity/attitude channels — the
// ablated design under which fusion-absorbed attacks evade detection.
func BenchmarkAblationPositionOnlyDetection(b *testing.B) {
	p := vehicle.MustProfile(vehicle.ArduCopter)
	th := positionOnlyThresholds(p)
	var exactN int
	n := 0
	for i := 0; i < b.N; i++ {
		for s := int64(0); s < 4; s++ {
			exact, _ := ablationMission(100+s, th)
			if exact {
				exactN++
			}
			n++
		}
	}
	b.ReportMetric(100*float64(exactN)/float64(n), "exact-diagnosis-%")
}

// BenchmarkAblationWorstCaseVsTargeted quantifies what diagnosis-guided
// targeting buys on the same single-sensor workload: the worst-case
// strategy isolates everything and pays in delay.
func BenchmarkAblationWorstCaseVsTargeted(b *testing.B) {
	run := func(strategy core.Strategy, seed int64) float64 {
		p := vehicle.MustProfile(vehicle.ArduCopter)
		rng := rand.New(rand.NewSource(seed))
		sda := attack.New(rng, attack.DefaultParams(), sensors.NewTypeSet(sensors.Baro), 14, 32)
		res, err := sim.Run(sim.Config{
			Profile: p, Plan: mission.NewStraight(60, 10), Strategy: strategy,
			WindowSec: 15, Attacks: attack.NewSchedule(sda),
			WindMean: 1.5, WindGust: 0.5, Seed: rng.Int63(),
		})
		if err != nil {
			return 0
		}
		return res.Duration
	}
	for i := 0; i < b.N; i++ {
		targeted := run(core.StrategyDeLorean, 200)
		worst := run(core.StrategyLQRO, 200)
		if targeted > 0 {
			b.ReportMetric(worst/targeted, "duration-ratio-worstcase-over-targeted")
		}
	}
}
