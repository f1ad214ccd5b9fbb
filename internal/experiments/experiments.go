// Package experiments defines one runnable experiment per table and
// figure of the paper's evaluation (§6): the workload generators,
// parameter sweeps, baselines, and aggregation that regenerate each
// reported result on the simulated substrate.
//
// Every experiment follows the same two-phase shape: it first draws its
// complete scenario list from the master seed — consuming the rng exactly
// as a serial sweep would — and then submits the resulting jobs through
// the unified execution seam (internal/engine), reducing the results in
// submission order. Randomness is therefore fixed before fan-out and the
// rendered tables are byte-identical at any worker count and under any
// engine (per-goroutine runner, shared-cache fleet, service pool).
//
// The registry (registry.go) exposes each experiment behind the
// Experiment interface; cmd/experiments drives them and renders the
// outputs recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/mission"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// Options scales an experiment run.
type Options struct {
	// Missions is the number of missions per condition (the paper uses
	// 100 for the simulated-RV experiments; benches scale this down).
	Missions int
	// Seed is the master seed; every mission derives its own seed from
	// it, so runs are exactly reproducible.
	Seed int64
	// Wind is the mean mission wind in m/s. The paper simulates 0–10 m/s;
	// with this substrate's drag model, worst-case (sensor-blind)
	// recovery drifts with the wind at full speed, so the evaluation core
	// uses a 0–3 m/s draw to keep the LQR-O baseline within its
	// paper-reported operating regime (see DESIGN.md substitution notes).
	Wind float64
	// Workers sizes the parallel mission runner's pool; <= 0 uses all
	// CPUs. Worker count affects wall-clock time only — experiment
	// output is byte-identical at any setting.
	Workers int
	// Progress, when non-nil, receives mission-completion counts from
	// each sweep an experiment submits (the count restarts at every
	// sweep). Calls are serialized by the runner.
	Progress func(completed, total int)
	// Collector, when non-nil, aggregates every mission's telemetry into
	// the run report. Experiments run sequentially and the runner feeds
	// the collector in submission order, so the report is byte-identical
	// at any Workers setting. The δ-calibration sweeps behind DeltaFor are
	// excluded: they are memoized across experiments, so attributing them
	// to whichever experiment happened to trigger them would make report
	// content depend on experiment selection.
	Collector *telemetry.Collector
	// Engine selects the execution engine every sweep dispatches through.
	// Nil selects the per-goroutine runner, or the fleet executor
	// when Fleet is set. All engines are byte-identical (the seam's
	// contract, pinned by internal/engine's equivalence suite); the choice
	// changes throughput only.
	Engine engine.Engine
	// Fleet selects the fleet executor when Engine is nil: missions are
	// dispatched one at a time to every worker over shared
	// per-(profile, dt) caches. Output is byte-identical to the runner's;
	// only throughput changes.
	Fleet bool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Missions <= 0 {
		o.Missions = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Wind < 0 {
		o.Wind = 0
	}
	return o
}

// engine resolves the execution engine: an explicit Options.Engine wins,
// then the Fleet shorthand, then the runner default.
func (o Options) engine() engine.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	if o.Fleet {
		return engine.Fleet()
	}
	return engine.Runner()
}

// engineOptions extracts the execution knobs for the engine seam.
func (o Options) engineOptions() engine.Options {
	return engine.Options{Workers: o.Workers, Progress: o.Progress, Telemetry: o.Collector}
}

// sweep executes pre-drawn jobs on the selected execution engine,
// returning results in submission order. Engines are interchangeable
// byte for byte; every experiment funnels through here, so the engine
// choice covers the whole evaluation.
func sweep(ctx context.Context, jobs []runner.Job, opt Options) ([]sim.Result, error) {
	return opt.engine().Run(ctx, jobs, opt.engineOptions())
}

// scenario is one mission draw: plan, wind, timing, and seed.
type scenario struct {
	plan     mission.Plan
	windMean float64
	windGust float64
	windDir  float64
	seed     int64
	// attackStart/attackDur position the SDA inside the cruise segment.
	attackStart float64
	attackDur   float64
}

// drawScenario samples a mission scenario for the profile.
func drawScenario(p vehicle.Profile, rng *rand.Rand, windCap float64) scenario {
	kinds := []mission.PathKind{
		mission.Straight, mission.MultiWaypoint, mission.Circular,
		mission.Polygon1, mission.Polygon2, mission.Polygon3,
	}
	kind := kinds[rng.Intn(len(kinds))]
	return scenario{
		plan:        mission.NewOfKind(kind, p.CruiseAltitude, rng),
		windMean:    rng.Float64() * windCap,
		windGust:    0.3 + 0.5*rng.Float64(),
		windDir:     rng.Float64() * 6.28318,
		seed:        rng.Int63(),
		attackStart: 10 + rng.Float64()*10,
		attackDur:   15 + rng.Float64()*10,
	}
}

// simConfig assembles a sim.Config for a scenario.
func (sc scenario) simConfig(p vehicle.Profile, strategy core.Strategy, delta diagnosis.Delta, window float64) sim.Config {
	return sim.Config{
		Profile:   p,
		Plan:      sc.plan,
		Strategy:  strategy,
		Delta:     delta,
		WindowSec: window,
		WindMean:  sc.windMean,
		WindGust:  sc.windGust,
		WindDir:   sc.windDir,
		Seed:      sc.seed,
		MaxSec:    300,
	}
}

// buildAttack mounts a persistent SDA on a random k-subset of sensors in
// the scenario's attack window.
func (sc scenario) buildAttack(rng *rand.Rand, k int) *attack.Schedule {
	targets := attack.RandomTargets(rng, k)
	sda := attack.New(rng, attack.DefaultParams(), targets, sc.attackStart, sc.attackStart+sc.attackDur)
	return attack.NewSchedule(sda)
}

// deltaEntry is one memoized calibration outcome; the sync.Once gives the
// cache singleflight semantics (concurrent first callers block on one
// calibration pass instead of racing duplicates).
type deltaEntry struct {
	once  sync.Once
	delta diagnosis.Delta
	err   error
}

// deltaCache memoizes per-profile calibrated thresholds so the table
// experiments share one calibration pass per RV (as the paper derives
// Table 3 once and reuses it).
var deltaCache sync.Map // vehicle.ProfileName -> *deltaEntry

// calibrationPasses counts completed calibration passes, for the
// singleflight test.
var calibrationPasses atomic.Int64

// DeltaFor returns calibrated δ thresholds for the profile, calibrating
// on first use with attack-free missions whose wind envelope (0–4.5 m/s)
// covers both the mission wind and the 15 km/h FP condition. The
// calibration draw (missions, seed, wind) is fixed so every caller shares
// one cache entry; opt contributes only the execution knobs (Workers).
// Concurrent callers for the same profile share a single calibration pass.
func DeltaFor(ctx context.Context, p vehicle.Profile, opt Options) (diagnosis.Delta, error) {
	e, _ := deltaCache.LoadOrStore(p.Name, &deltaEntry{})
	entry := e.(*deltaEntry)
	entry.once.Do(func() {
		res, err := Calibrate(ctx, p, Options{
			Missions: 8,
			Seed:     1000 + int64(len(p.Name)),
			Wind:     4.5,
			Workers:  opt.Workers,
		})
		if err != nil {
			entry.err = err
			return
		}
		entry.delta = res.Delta
		calibrationPasses.Add(1)
	})
	if entry.err != nil {
		// Evict the failed entry so a transient failure (a cancelled
		// context, say) does not poison the cache for later callers.
		deltaCache.Delete(p.Name)
		return diagnosis.Delta{}, entry.err
	}
	return entry.delta, nil
}

// newSeededRand returns a deterministic source for tests.
func newSeededRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
