package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/sensors"
	"repro/internal/stat"
	"repro/internal/vehicle"
)

// CalibrationResult is the §5.4 threshold-derivation output for one RV:
// the per-state δ table (one Table 3 row) and the Fig. 8a CDF evidence
// that k = 3 bounds the attack-free error.
type CalibrationResult struct {
	Profile vehicle.ProfileName
	Delta   diagnosis.Delta
	// FracUnderDelta is the fraction of attack-free error samples under δ
	// per state (Fig. 8a claims ≈ 1.0).
	FracUnderDelta [sensors.NumStates]float64
	// CDF is the empirical CDF of the z-position error (the Fig. 8a
	// example channel).
	CDF []stat.CDFPoint
	// Missions is the number of attack-free calibration missions flown.
	Missions int
}

// Calibrate runs attack-free missions for the profile (§5.4: "between
// 15–25 attack-free missions for each RV"), derives δ = median + k·stdev
// per physical state, and validates the thresholds on held-out missions.
// Calibration and validation missions are drawn up front and flown as one
// parallel sweep; the held-out block starts at index opt.Missions.
func Calibrate(ctx context.Context, p vehicle.Profile, opt Options) (CalibrationResult, error) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	out := CalibrationResult{Profile: p.Name, Missions: opt.Missions}

	heldMissions := opt.Missions/2 + 1
	var jobs []engine.Job
	for i := 0; i < opt.Missions+heldMissions; i++ {
		sc := drawScenario(p, rng, opt.Wind)
		cfg := sc.simConfig(p, core.StrategyNone, core.DefaultDelta(p), 15)
		cfg.CollectErrors = true
		jobs = append(jobs, engine.Job{
			Label: fmt.Sprintf("calibrate/%s/mission=%d/seed=%d", p.Name, i, sc.seed),
			Cfg:   cfg,
		})
	}
	results, err := sweep(ctx, jobs, opt)
	if err != nil {
		return out, err
	}

	var samples []sensors.PhysState
	for _, res := range results[:opt.Missions] {
		samples = append(samples, res.ErrorSamples...)
	}
	delta := core.CalibrateDelta(samples, 3)
	out.Delta = delta

	// Validation pass on held-out missions (§5.4: "we validated δ values
	// by running another 15 missions").
	var held []sensors.PhysState
	for _, res := range results[opt.Missions:] {
		held = append(held, res.ErrorSamples...)
	}
	zErrs := make([]float64, 0, len(held))
	for _, idx := range sensors.AllStates() {
		var under, total int
		for _, e := range held {
			total++
			if e[idx] <= delta[idx] {
				under++
			}
		}
		if total > 0 {
			out.FracUnderDelta[idx] = float64(under) / float64(total)
		}
	}
	for _, e := range held {
		zErrs = append(zErrs, e[sensors.SZ])
	}
	out.CDF = stat.EmpiricalCDF(zErrs)
	return out, nil
}

// StealthyWindowResult is the Fig. 8b / §5.4 window-sizing output: the
// distribution of times a stealthy GPS attack evades the CUSUM detector,
// and the derived checkpoint window size.
type StealthyWindowResult struct {
	Profile vehicle.ProfileName
	// DetectionDelays holds the per-mission time from stealthy-attack
	// onset to the detector alert (capped at the attack duration when
	// never detected).
	DetectionDelays []float64
	// WindowSec is the chosen window: the maximum observed delay plus a
	// 10% margin, ensuring ~100% detection within one window.
	WindowSec float64
	// DetectedAll reports whether every probe was detected.
	DetectedAll bool
}

// StealthyWindow probes how long a stealthy GPS attack (gradual
// sub-threshold bias ramp) can evade detection on the profile, and sizes
// the checkpoint window accordingly (§5.4: "stealthy attacks against GPS
// remain undetected for the maximum duration... we determine the window
// size for each RV to be larger").
func StealthyWindow(ctx context.Context, p vehicle.Profile, opt Options) (StealthyWindowResult, error) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed + 7))
	out := StealthyWindowResult{Profile: p.Name, DetectedAll: true}

	const attackDur = 30.0
	var jobs []engine.Job
	starts := make([]float64, 0, opt.Missions)
	for i := 0; i < opt.Missions; i++ {
		sc := drawScenario(p, rng, opt.Wind)
		start := sc.attackStart
		// Gradual ramp to a 12–25 m GPS offset over the full window: each
		// step stays under the instantaneous threshold, so only CUSUM can
		// catch it.
		mag := 12 + 13*rng.Float64()
		bias := sensors.Bias{GPSPos: [3]float64{mag, mag * 0.5, 0}}
		sda := attack.NewWithBias(rng, bias, start, start+attackDur, attack.Gradual)
		cfg := sc.simConfig(p, core.StrategyDeLorean, core.DefaultDelta(p), 60)
		cfg.Attacks = attack.NewSchedule(sda)
		cfg.TraceEvery = 5
		jobs = append(jobs, engine.Job{
			Label: fmt.Sprintf("fig8b/%s/mission=%d/seed=%d", p.Name, i, sc.seed),
			Cfg:   cfg,
		})
		starts = append(starts, start)
	}
	results, err := sweep(ctx, jobs, opt)
	if err != nil {
		return out, err
	}

	for i, res := range results {
		start := starts[i]
		delay := attackDur
		detected := false
		for _, tp := range res.Trace {
			if tp.T >= start && tp.AlertActive {
				delay = tp.T - start
				detected = true
				break
			}
		}
		if !detected {
			out.DetectedAll = false
		}
		out.DetectionDelays = append(out.DetectionDelays, delay)
	}
	_, maxDelay := minMax(out.DetectionDelays)
	out.WindowSec = 1.1 * maxDelay
	if out.WindowSec < 5 {
		out.WindowSec = 5
	}
	return out, nil
}

func minMax(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// OverheadResult is the Table 3 right-hand side for one real RV: CPU,
// battery, and memory overheads of running DeLorean.
type OverheadResult struct {
	Profile vehicle.ProfileName
	// CPUPercent is the defense modules' share of the control loop's
	// compute time, from the deterministic cost model (internal/core
	// costmodel.go) — identical on every run and at any worker count.
	CPUPercent float64
	// BatteryPercent is the extra motor-effort energy under attack
	// relative to the attack-free ground truth (recovery actions + delay).
	BatteryPercent float64
	// MemoryBytes is the peak checkpoint buffer footprint.
	MemoryBytes int
	// WindowSec is the checkpoint window used.
	WindowSec float64
}

// Overheads measures DeLorean's runtime overheads on the profile
// (Table 3, §6.6) by flying attacked missions and comparing against
// attack-free ground truth. Each mission submits an (attacked, ground
// truth) job pair.
func Overheads(ctx context.Context, p vehicle.Profile, delta diagnosis.Delta, window float64, opt Options) (OverheadResult, error) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed + 13))
	out := OverheadResult{Profile: p.Name, WindowSec: window}

	var jobs []engine.Job
	for i := 0; i < opt.Missions; i++ {
		sc := drawScenario(p, rng, opt.Wind)
		atk := sc.buildAttack(rng, 1+rng.Intn(2))
		cfg := sc.simConfig(p, core.StrategyDeLorean, delta, window)
		cfg.Attacks = atk
		jobs = append(jobs,
			engine.Job{
				Label: fmt.Sprintf("overheads/%s/mission=%d/seed=%d", p.Name, i, sc.seed),
				Cfg:   cfg,
			},
			engine.Job{
				Label: fmt.Sprintf("overheads/%s/gt/mission=%d/seed=%d", p.Name, i, sc.seed),
				Cfg:   sc.simConfig(p, core.StrategyDeLorean, delta, window),
			})
	}
	results, err := sweep(ctx, jobs, opt)
	if err != nil {
		return out, err
	}

	var defNS, totNS int64
	var energyAtk, energyGT float64
	for i := 0; i < opt.Missions; i++ {
		res, gt := results[2*i], results[2*i+1]
		defNS += res.DefenseNS
		totNS += res.TotalNS
		energyAtk += res.EnergyProxy
		if mb := res.MemoryBytes; mb > out.MemoryBytes {
			out.MemoryBytes = mb
		}
		energyGT += gt.EnergyProxy
	}
	if totNS > 0 {
		out.CPUPercent = 100 * float64(defNS) / float64(totNS)
	}
	if energyGT > 0 {
		out.BatteryPercent = 100 * (energyAtk - energyGT) / energyGT
	}
	return out, nil
}
