package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// TraceResult is a figure-style trace: the mission time series plus the
// summary statistics the paper quotes alongside the figure.
type TraceResult struct {
	Label string
	Trace []sim.TracePoint
	// RMSD is the attitude RMSD vs the attack-free ground truth (Fig. 9
	// quotes 4.21 for DeLorean vs 20.66 for LQR-O in their units).
	RMSD float64
	// DelayPercent is the mission delay vs ground truth.
	DelayPercent float64
	// FinalMiss is the landing distance from the destination.
	FinalMiss float64
	// MaxDeviation is the peak altitude deviation from the 10 m cruise
	// during the first attack (Fig. 2's 18 m overshoot).
	MaxDeviation float64
	Success      bool
	Crashed      bool
}

// fig2Scenario is the §3.2 motivating scenario: a Pixhawk drone on a
// straight mission at 10 m altitude; SDAs on GPS+accelerometer during
// takeoff and during landing. The attacked run and its attack-free ground
// truth are submitted as one job pair.
func fig2Scenario(ctx context.Context, strategy core.Strategy, opt Options) (TraceResult, error) {
	opt = opt.withDefaults()
	p := vehicle.MustProfile(vehicle.Pixhawk)
	plan := mission.NewStraight(70*p.CruiseSpeed/5, 10)
	rng := rand.New(rand.NewSource(opt.Seed))

	targets := sensors.NewTypeSet(sensors.GPS, sensors.Accel)
	first := attack.New(rng, attack.DefaultParams(), targets, 5, 30)
	// The second instance strikes during the landing phase; its absolute
	// timing depends on mission progress, so place it late in the mission.
	second := attack.New(rng, attack.DefaultParams(), targets, 65, 85)

	cfg := sim.Config{
		Profile:    p,
		Plan:       plan,
		Strategy:   strategy,
		Delta:      core.DefaultDelta(p),
		WindowSec:  15,
		Attacks:    attack.NewSchedule(first, second),
		WindMean:   2.2,
		WindGust:   0.9,
		Seed:       opt.Seed,
		MaxSec:     300,
		TraceEvery: 25,
	}
	gtCfg := cfg
	gtCfg.Attacks = nil
	gtCfg.TraceEvery = 0

	results, err := sweep(ctx, []engine.Job{
		{Label: fmt.Sprintf("fig2/%s/attacked", strategy), Cfg: cfg},
		{Label: fmt.Sprintf("fig2/%s/gt", strategy), Cfg: gtCfg},
	}, opt)
	if err != nil {
		return TraceResult{}, err
	}
	res, gt := results[0], results[1]

	rmsd := metrics.AttitudeRMSD(res.AttitudeSeries, gt.AttitudeSeries)
	opt.Collector.ObserveRMSD(rmsd)
	out := TraceResult{
		Label:        strategy.String(),
		Trace:        res.Trace,
		RMSD:         rmsd,
		DelayPercent: metrics.PercentMissionDelay(res.Duration, gt.Duration, gt.Duration),
		FinalMiss:    res.FinalDistance,
		Success:      res.Success,
		Crashed:      res.Crashed,
	}
	for _, tp := range res.Trace {
		if tp.T > 5 && tp.T < 35 {
			if d := tp.Truth.Z - 10; d > out.MaxDeviation {
				out.MaxDeviation = d
			}
		}
	}
	return out, nil
}

// Fig2 reproduces the motivating LQR-O worst-case recovery trace (§3.2):
// overly aggressive takeoff recovery and overly conservative landing.
func Fig2(ctx context.Context, opt Options) (TraceResult, error) {
	return fig2Scenario(ctx, core.StrategyLQRO, opt)
}

// Fig9 reproduces DeLorean's targeted recovery on the same scenario
// (§6.4): minimal deviation and an on-target landing.
func Fig9(ctx context.Context, opt Options) (TraceResult, error) {
	return fig2Scenario(ctx, core.StrategyDeLorean, opt)
}

// Fig10Result is one stealthy-attack episode of §6.5.
type Fig10Result struct {
	Attack string
	// FinalMiss is the landing offset from the destination.
	FinalMiss float64
	// DetectedWithinWindow reports whether the CUSUM alert fired within
	// one checkpoint window of onset.
	DetectedWithinWindow bool
	// DetectionDelay is onset→alert in seconds (capped at the attack
	// duration).
	DetectionDelay float64
	// HSCorruption is the drone's true deviation from the ground-truth
	// path accumulated while the attack ran undetected (the paper's
	// "corruption in recorded states", ≤ 3.28 m for A2).
	HSCorruption float64
	Success      bool
	Crashed      bool
}

// Fig10 runs the three adaptive stealthy attacks of §6.5 on ArduCopter:
// A1 random bias (all sensors), A2 gradually increasing bias, A3
// intermittent bias. Each episode submits an (attacked, ground-truth)
// job pair; A1's SDA redraws its bias per tick at runtime, so every
// episode gets its own rng derived from the master stream — jobs stay
// independent under parallel execution.
func Fig10(ctx context.Context, opt Options) ([]Fig10Result, error) {
	opt = opt.withDefaults()
	p := vehicle.MustProfile(vehicle.ArduCopter)
	rng := rand.New(rand.NewSource(opt.Seed))

	type episode struct {
		name  string
		mount func(rng *rand.Rand, start, end float64) *attack.SDA
	}
	// Sub-threshold bias magnitudes: individually below the instantaneous
	// detector thresholds, caught only by CUSUM accumulation.
	// The paper's A1 causes 0–5 m trajectory deviations; the per-sensor
	// biases are far below the instantaneous thresholds (a gyro bias this
	// small integrates to an attitude error the complementary filter
	// bounds well under δ). The accelerometer channel carries no bias:
	// a sub-threshold accelerometer bias during a GPS isolation is
	// physically unobservable (it integrates quadratically into a
	// position drift nothing onboard can see), so any recovery scheme —
	// the paper's included — can only meet the 0–5 m deviation bound if
	// the accelerometer component stays in the noise (see EXPERIMENTS.md
	// "known deviations").
	stealthBias := sensors.Bias{
		GPSPos: [3]float64{3.8, 3.2, 0},
		Gyro:   [3]float64{0.04, 0.04, 0.02},
		MagYaw: 0.1,
		Baro:   2.2,
	}
	episodes := []episode{
		{name: "A1-random", mount: func(rng *rand.Rand, s, e float64) *attack.SDA {
			return attack.NewWithBias(rng, stealthBias, s, e, attack.RandomBias)
		}},
		{name: "A2-gradual", mount: func(rng *rand.Rand, s, e float64) *attack.SDA {
			return attack.NewWithBias(rng, sensors.Bias{GPSPos: [3]float64{5.5, 0, 0}}, s, e, attack.Gradual)
		}},
		{name: "A3-intermittent", mount: func(rng *rand.Rand, s, e float64) *attack.SDA {
			a := attack.NewWithBias(rng, sensors.Bias{GPSPos: [3]float64{3.6, 0, 0}}, s, e, attack.Intermittent)
			a.OnDur, a.OffDur = 1.5, 1.5
			return a
		}},
	}

	const start, dur = 10.0, 25.0
	var jobs []engine.Job
	for _, ep := range episodes {
		// Derived per-episode rng: the master stream advances by exactly
		// one Int63 per episode regardless of how many draws the SDA
		// consumes at runtime (A1 redraws every tick).
		epRng := rand.New(rand.NewSource(rng.Int63()))
		plan := mission.NewStraight(100, 20)
		cfg := sim.Config{
			Profile:    p,
			Plan:       plan,
			Strategy:   core.StrategyDeLorean,
			Delta:      core.DefaultDelta(p),
			WindowSec:  30, // sized per the Fig. 8b stealthy probe
			Attacks:    attack.NewSchedule(ep.mount(epRng, start, start+dur)),
			Seed:       opt.Seed,
			MaxSec:     300,
			TraceEvery: 5,
		}
		gtCfg := cfg
		gtCfg.Attacks = nil
		gtCfg.TraceEvery = 5
		jobs = append(jobs,
			engine.Job{Label: fmt.Sprintf("fig10/%s/attacked", ep.name), Cfg: cfg},
			engine.Job{Label: fmt.Sprintf("fig10/%s/gt", ep.name), Cfg: gtCfg})
	}

	results, err := sweep(ctx, jobs, opt)
	if err != nil {
		return nil, err
	}

	var out []Fig10Result
	for i, ep := range episodes {
		res, gt := results[2*i], results[2*i+1]
		r := Fig10Result{Attack: ep.name, Success: res.Success, Crashed: res.Crashed, DetectionDelay: dur, FinalMiss: res.FinalDistance}
		var detectedAt float64 = -1
		for _, tp := range res.Trace {
			if tp.T >= start && tp.AlertActive {
				detectedAt = tp.T
				break
			}
		}
		if detectedAt >= 0 {
			r.DetectionDelay = detectedAt - start
			r.DetectedWithinWindow = r.DetectionDelay <= 30
		}
		// HS corruption: peak truth-vs-ground-truth deviation while the
		// attack ran undetected.
		horizon := detectedAt
		if horizon < 0 {
			horizon = start + dur
		}
		for i := 0; i < len(res.Trace) && i < len(gt.Trace); i++ {
			tp := res.Trace[i]
			if tp.T < start || tp.T > horizon {
				continue
			}
			d := tp.Truth.HorizontalDistanceTo(gt.Trace[i].Truth.X, gt.Trace[i].Truth.Y)
			if d > r.HSCorruption {
				r.HSCorruption = d
			}
		}
		out = append(out, r)
	}
	return out, nil
}
