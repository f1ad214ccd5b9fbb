package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/floats"
	"repro/internal/metrics"
	"repro/internal/sensors"
)

// Table4Row is one diagnosis technique's row of Table 4.
type Table4Row struct {
	Technique string
	// TPByCount is the exact-identification rate per number of sensors
	// targeted (index 0 ⇒ 1 sensor … index 3 ⇒ 4 sensors, i.e. up to
	// n−1 as in the paper).
	TPByCount [4]float64
	// AvgTP is the mean over the four counts.
	AvgTP float64
	// FP is the fraction of no-attack missions (with induced detector
	// false alarms under wind) in which the technique flagged at least
	// one sensor.
	FP float64
}

// Table4Result reproduces Table 4: DeLorean's FG diagnosis vs the three
// RA baselines, on the simulated RVs.
type Table4Result struct {
	Rows []Table4Row
	// GratuitousActivations counts recovery activations caused by FP
	// diagnosis per technique (the §6.1 "4X reduction" claim), aligned
	// with Rows.
	GratuitousActivations []int
	Missions              int
}

// diagnoserFactory builds a fresh diagnoser per mission (diagnosers are
// stateful, so every job gets its own instance).
type diagnoserFactory struct {
	name  string
	build func(d diagnosis.Delta) diagnosis.Diagnoser
}

func diagnoserFactories() []diagnoserFactory {
	return []diagnoserFactory{
		{name: "Savior-RA", build: func(d diagnosis.Delta) diagnosis.Diagnoser { return diagnosis.NewRA(diagnosis.SaviorRA, d) }},
		{name: "PID-Piper-RA", build: func(d diagnosis.Delta) diagnosis.Diagnoser { return diagnosis.NewRA(diagnosis.PIDPiperRA, d) }},
		{name: "EKF-RA", build: func(d diagnosis.Delta) diagnosis.Diagnoser { return diagnosis.NewRA(diagnosis.EKFRA, d) }},
		{name: "DeLorean", build: func(d diagnosis.Delta) diagnosis.Diagnoser { return diagnosis.NewDeLorean(d) }},
	}
}

// Table4 runs the §6.1 diagnosis experiment: SDAs targeting 1..4 sensors
// on the simulated RVs (TP), plus no-attack missions under ~15 km/h wind
// with forced detector alarms (FP). Every technique's full mission list —
// TP sweeps and FP probes — is drawn first, then flown in one parallel
// sweep per technique.
func Table4(ctx context.Context, opt Options) (Table4Result, error) {
	opt = opt.withDefaults()
	out := Table4Result{Missions: opt.Missions}
	profiles := simProfiles()
	fpMissions := opt.Missions / 2
	if fpMissions < 4 {
		fpMissions = 4
	}

	for _, fac := range diagnoserFactories() {
		var jobs []engine.Job
		var wantTargets []sensors.TypeSet
		// Identical attack draws across techniques: re-seed per technique
		// with the same master seed (§6.1: "We launched the same attacks
		// for all the diagnosis techniques").
		rng := rand.New(rand.NewSource(opt.Seed))
		for k := 1; k <= 4; k++ {
			for i := 0; i < opt.Missions; i++ {
				p := profiles[i%len(profiles)]
				delta, err := DeltaFor(ctx, p, opt)
				if err != nil {
					return out, err
				}
				sc := drawScenario(p, rng, opt.Wind)
				targets := attack.RandomTargets(rng, k)
				sda := attack.New(rng, attack.DefaultParams(), targets, sc.attackStart, sc.attackStart+sc.attackDur)

				cfg := sc.simConfig(p, core.StrategyDeLorean, delta, 15)
				cfg.Diagnoser = fac.build(delta)
				cfg.Attacks = attack.NewSchedule(sda)
				jobs = append(jobs, engine.Job{
					Label: fmt.Sprintf("table4/%s/k=%d/mission=%d/seed=%d", fac.name, k, i, sc.seed),
					Cfg:   cfg,
				})
				wantTargets = append(wantTargets, targets)
			}
		}

		// FP runs: no attack, ~15 km/h (4.2 m/s) wind, forced detector
		// alarms mid-mission.
		fpRng := rand.New(rand.NewSource(opt.Seed + 1))
		for i := 0; i < fpMissions; i++ {
			p := profiles[i%len(profiles)]
			delta, err := DeltaFor(ctx, p, opt)
			if err != nil {
				return out, err
			}
			sc := drawScenario(p, fpRng, 0)
			// The paper's FP condition is a "modest wind speed of 15 km/h"
			// (≈ 4.2 m/s mean); gusts stay within the calibration envelope.
			sc.windMean = 4.2
			sc.windGust = 0.8

			cfg := sc.simConfig(p, core.StrategyDeLorean, delta, 15)
			cfg.Diagnoser = fac.build(delta)
			cfg.Detector = &windowedForcedAlert{windows: [][2]float64{
				{sc.attackStart, sc.attackStart + 2},
				{sc.attackStart + 8, sc.attackStart + 10},
			}}
			jobs = append(jobs, engine.Job{
				Label: fmt.Sprintf("table4/%s/fp/mission=%d/seed=%d", fac.name, i, sc.seed),
				Cfg:   cfg,
			})
		}

		results, err := sweep(ctx, jobs, opt)
		if err != nil {
			return out, err
		}

		var row Table4Row
		row.Technique = fac.name
		j := 0
		for k := 1; k <= 4; k++ {
			var hits int
			for i := 0; i < opt.Missions; i++ {
				res := results[j]
				if res.DiagnosisRanDuringAttack && res.DiagnosedDuringAttack == wantTargets[j] {
					hits++
				}
				j++
			}
			row.TPByCount[k-1] = metrics.Rate(hits, opt.Missions)
		}
		row.AvgTP = (row.TPByCount[0] + row.TPByCount[1] + row.TPByCount[2] + row.TPByCount[3]) / 4

		var fps, gratuitous int
		for i := 0; i < fpMissions; i++ {
			if res := results[j]; res.RecoveryActivations > 0 {
				fps++
				gratuitous += res.RecoveryActivations
			}
			j++
		}
		row.FP = metrics.Rate(fps, fpMissions)
		out.Rows = append(out.Rows, row)
		out.GratuitousActivations = append(out.GratuitousActivations, gratuitous)
	}
	return out, nil
}

// windowedForcedAlert forces detector alarms during fixed time windows —
// the §6.1 mechanism for inducing false alarms ("we induce false alarms
// in attack detectors by simulating wind conditions"). It tracks mission
// time via Update calls.
type windowedForcedAlert struct {
	windows [][2]float64
	ticks   int
	dt      float64
}

var _ detect.Detector = (*windowedForcedAlert)(nil)

func (d *windowedForcedAlert) Update(_, _ sensors.PhysState) bool {
	d.ticks++
	return d.Alert()
}

func (d *windowedForcedAlert) Alert() bool {
	dt := d.dt
	if floats.Zero(dt) {
		dt = 0.01
	}
	t := float64(d.ticks) * dt
	for _, w := range d.windows {
		if t >= w[0] && t < w[1] {
			return true
		}
	}
	return false
}

func (d *windowedForcedAlert) Reset() {}
