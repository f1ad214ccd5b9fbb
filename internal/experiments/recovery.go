package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// Table5Cell is one (technique, sensor-count) outcome of Table 5.
type Table5Cell struct {
	CrashRate   float64
	MissionSucc float64
}

// Table5Result reproduces Table 5: recovery outcomes of SSR, PID-Piper,
// LQR-O, and DeLorean as a function of the number of sensors attacked
// (1–5) on the simulated RVs.
type Table5Result struct {
	Techniques []string
	// Cells[t][k-1] is technique t under k attacked sensors.
	Cells    [][5]Table5Cell
	Missions int
}

// table5Strategies lists the §6.2 comparison order.
func table5Strategies() []core.Strategy {
	return []core.Strategy{core.StrategySSR, core.StrategyPIDPiper, core.StrategyLQRO, core.StrategyDeLorean}
}

// simProfiles returns the two simulated-RV profiles of §6.1–6.3.
func simProfiles() []vehicle.Profile {
	return []vehicle.Profile{
		vehicle.MustProfile(vehicle.ArduCopter),
		vehicle.MustProfile(vehicle.ArduRover),
	}
}

// Table5 runs the §6.2 recovery experiment: identical SDAs mounted for
// all four techniques, varying the number of sensor types targeted from 1
// to 5. All scenarios are drawn up front (the same draws per technique:
// each technique re-seeds with the master seed) and flown in parallel.
func Table5(ctx context.Context, opt Options) (Table5Result, error) {
	opt = opt.withDefaults()
	out := Table5Result{Missions: opt.Missions}
	profiles := simProfiles()
	strategies := table5Strategies()

	var jobs []engine.Job
	for _, strat := range strategies {
		out.Techniques = append(out.Techniques, strat.String())
		rng := rand.New(rand.NewSource(opt.Seed)) // same draws per technique
		for k := 1; k <= 5; k++ {
			for i := 0; i < opt.Missions; i++ {
				p := profiles[i%len(profiles)]
				sc := drawScenario(p, rng, opt.Wind)
				atk := sc.buildAttack(rng, k)
				delta, err := DeltaFor(ctx, p, opt)
				if err != nil {
					return out, err
				}
				cfg := sc.simConfig(p, strat, delta, 15)
				cfg.Attacks = atk
				jobs = append(jobs, engine.Job{
					Label: fmt.Sprintf("table5/%s/k=%d/mission=%d/seed=%d", strat, k, i, sc.seed),
					Cfg:   cfg,
				})
			}
		}
	}

	results, err := sweep(ctx, jobs, opt)
	if err != nil {
		return out, err
	}

	j := 0
	for range strategies {
		var cells [5]Table5Cell
		for k := 1; k <= 5; k++ {
			var crashes, succ int
			for i := 0; i < opt.Missions; i++ {
				res := results[j]
				j++
				if res.Crashed {
					crashes++
				}
				if res.Success {
					succ++
				}
			}
			cells[k-1] = Table5Cell{
				CrashRate:   metrics.Rate(crashes, opt.Missions),
				MissionSucc: metrics.Rate(succ, opt.Missions),
			}
		}
		out.Cells = append(out.Cells, cells)
	}
	return out, nil
}

// Table6Cell is one (technique, sensor-count) outcome of Table 6.
type Table6Cell struct {
	RMSD        float64 // normalized attitude RMSD (Eq. 13)
	MissionDly  float64 // percentage mission delay (Eq. 6)
	CrashRate   float64
	MissionSucc float64
}

// Table6Result reproduces Table 6: DeLorean vs LQR-O with stability and
// delay metrics.
type Table6Result struct {
	// LQRO[k-1] and DeLorean[k-1] index by number of sensors attacked.
	LQRO     [5]Table6Cell
	DeLorean [5]Table6Cell
	Missions int
}

// t6sample is one mission's raw Table 6 measurement.
type t6sample struct {
	rmsd  float64
	delay float64
	crash bool
	succ  bool
}

// Table6 runs the §6.3 need-for-diagnosis experiment: DeLorean vs LQR-O
// under identical SDAs, with RMSD and mission-delay accounting against
// per-scenario attack-free ground-truth runs. Each scenario submits an
// (attacked, ground-truth) job pair; both strategies redraw the same
// scenarios from the master seed.
func Table6(ctx context.Context, opt Options) (Table6Result, error) {
	opt = opt.withDefaults()
	out := Table6Result{Missions: opt.Missions}
	profiles := simProfiles()
	strategies := []core.Strategy{core.StrategyLQRO, core.StrategyDeLorean}

	var jobs []engine.Job
	for _, strat := range strategies {
		rng := rand.New(rand.NewSource(opt.Seed))
		for k := 1; k <= 5; k++ {
			for i := 0; i < opt.Missions; i++ {
				p := profiles[i%len(profiles)]
				sc := drawScenario(p, rng, opt.Wind)
				atk := sc.buildAttack(rng, k)
				delta, err := DeltaFor(ctx, p, opt)
				if err != nil {
					return out, err
				}
				cfg := sc.simConfig(p, strat, delta, 15)
				cfg.Attacks = atk
				jobs = append(jobs,
					engine.Job{
						Label: fmt.Sprintf("table6/%s/k=%d/mission=%d/seed=%d", strat, k, i, sc.seed),
						Cfg:   cfg,
					},
					engine.Job{
						Label: fmt.Sprintf("table6/gt/k=%d/mission=%d/seed=%d", k, i, sc.seed),
						Cfg:   sc.simConfig(p, core.StrategyNone, delta, 15),
					})
			}
		}
	}

	results, err := sweep(ctx, jobs, opt)
	if err != nil {
		return out, err
	}

	collect := func(offset int) [5][]t6sample {
		var samples [5][]t6sample
		j := offset
		for k := 1; k <= 5; k++ {
			for i := 0; i < opt.Missions; i++ {
				res, gt := results[j], results[j+1]
				j += 2
				rmsd := metrics.AttitudeRMSD(res.AttitudeSeries, gt.AttitudeSeries)
				opt.Collector.ObserveRMSD(rmsd)
				samples[k-1] = append(samples[k-1], t6sample{
					rmsd:  rmsd,
					delay: metrics.PercentMissionDelay(res.Duration, gt.Duration, gt.Duration),
					crash: res.Crashed,
					succ:  res.Success,
				})
			}
		}
		return samples
	}
	perStrategy := 2 * 5 * opt.Missions
	lqro := collect(0)
	dl := collect(perStrategy)

	// Normalize RMSD across ALL recovery-activated missions (Eq. 13 uses
	// the min/max among recovery-activated missions).
	var all []float64
	for k := 0; k < 5; k++ {
		for _, s := range lqro[k] {
			all = append(all, s.rmsd)
		}
		for _, s := range dl[k] {
			all = append(all, s.rmsd)
		}
	}
	lo, hi := metrics.MinMax(all)

	summarize := func(samples [5][]t6sample) [5]Table6Cell {
		var cells [5]Table6Cell
		for k := 0; k < 5; k++ {
			var rmsdSum, delaySum float64
			var crash, succ int
			for _, s := range samples[k] {
				rmsdSum += metrics.NormalizeRMSD(s.rmsd, lo, hi)
				delaySum += s.delay
				if s.crash {
					crash++
				}
				if s.succ {
					succ++
				}
			}
			n := len(samples[k])
			if n == 0 {
				continue
			}
			cells[k] = Table6Cell{
				RMSD:        rmsdSum / float64(n),
				MissionDly:  delaySum / float64(n),
				CrashRate:   metrics.Rate(crash, n),
				MissionSucc: metrics.Rate(succ, n),
			}
		}
		return cells
	}
	out.LQRO = summarize(lqro)
	out.DeLorean = summarize(dl)
	return out, nil
}

// Table7Row is one real-RV row of Table 7.
type Table7Row struct {
	Profile vehicle.ProfileName
	// TPByCount / MSByCount index by number of sensors attacked (1–5).
	TPByCount [5]float64
	MSByCount [5]float64
	AvgTP     float64
	AvgMS     float64
	// FP is the diagnosis false-positive rate in no-attack missions
	// (reported in-text as 2–6% across RVs).
	FP float64
	// Crashes counts physical crashes across all missions (the paper
	// reports none on real RVs).
	Crashes int
}

// Table7Result reproduces Table 7: DeLorean on the four real-RV profiles.
type Table7Result struct {
	Rows     []Table7Row
	Missions int
}

// Table7 runs the §6.4 real-RV experiment on the four profiles standing
// in for the paper's physical vehicles. All profiles' scenarios go into
// one sweep; the reduce walks them back in submission order.
func Table7(ctx context.Context, opt Options) (Table7Result, error) {
	opt = opt.withDefaults()
	out := Table7Result{Missions: opt.Missions}
	fpMissions := opt.Missions / 2
	if fpMissions < 4 {
		fpMissions = 4
	}

	var jobs []engine.Job
	// wantTargets[j] holds, for attacked job j, the mounted target set
	// for exact-identification scoring (empty for FP-probe jobs).
	var wantTargets []sensors.TypeSet
	for _, name := range vehicle.RealRVs() {
		p := vehicle.MustProfile(name)
		delta, err := DeltaFor(ctx, p, opt)
		if err != nil {
			return out, err
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		for k := 1; k <= 5; k++ {
			for i := 0; i < opt.Missions; i++ {
				sc := drawScenario(p, rng, opt.Wind)
				atk := sc.buildAttack(rng, k)
				cfg := sc.simConfig(p, core.StrategyDeLorean, delta, 15)
				cfg.Attacks = atk
				jobs = append(jobs, engine.Job{
					Label: fmt.Sprintf("table7/%s/k=%d/mission=%d/seed=%d", name, k, i, sc.seed),
					Cfg:   cfg,
				})
				wantTargets = append(wantTargets, atk.Attacks[0].Targets)
			}
		}
		// FP probe: attack-free windy missions; any recovery activation is
		// a diagnosis FP.
		for i := 0; i < fpMissions; i++ {
			sc := drawScenario(p, rng, opt.Wind)
			jobs = append(jobs, engine.Job{
				Label: fmt.Sprintf("table7/%s/fp/mission=%d/seed=%d", name, i, sc.seed),
				Cfg:   sc.simConfig(p, core.StrategyDeLorean, delta, 15),
			})
			wantTargets = append(wantTargets, sensors.NewTypeSet())
		}
	}

	results, err := sweep(ctx, jobs, opt)
	if err != nil {
		return out, err
	}

	j := 0
	for _, name := range vehicle.RealRVs() {
		row := Table7Row{Profile: name}
		for k := 1; k <= 5; k++ {
			var tp, ms int
			for i := 0; i < opt.Missions; i++ {
				res := results[j]
				want := wantTargets[j]
				j++
				if res.DiagnosisRanDuringAttack && res.DiagnosedDuringAttack == want {
					tp++
				}
				if res.Success {
					ms++
				}
				if res.Crashed {
					row.Crashes++
				}
			}
			row.TPByCount[k-1] = metrics.Rate(tp, opt.Missions)
			row.MSByCount[k-1] = metrics.Rate(ms, opt.Missions)
		}
		for k := 0; k < 5; k++ {
			row.AvgTP += row.TPByCount[k] / 5
			row.AvgMS += row.MSByCount[k] / 5
		}
		var fp int
		for i := 0; i < fpMissions; i++ {
			if results[j].RecoveryActivations > 0 {
				fp++
			}
			j++
		}
		row.FP = metrics.Rate(fp, fpMissions)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
