// Package fleet is the shared-cache mission executor: it attaches one
// core.Shared cache per (vehicle profile, control period) key to every
// job — the recovery LQR gain (a DARE solve), the EKF covariance/gain
// schedule, and the compiled diagnosis graphs, built once per process
// instead of once per mission — and dispatches the missions one at a
// time to every worker of the per-goroutine runner (internal/runner).
//
// The executor accepts the exact same pre-drawn job list as the bare
// runner and produces byte-identical output: the caches are read-only
// and bit-identical to what each mission would build for itself, and the
// runner slots results by submission index, recovers a panic per job,
// reports the lowest-indexed labeled failure, and reduces telemetry
// strictly in submission order. Its throughput gain over the bare runner
// comes from the shared caches alone. The property tests in
// equiv_test.go pin the byte-identity at worker counts 1 and N, and
// scripts/bench_compare.sh gates the benchmark on a byte-compare of the
// two executors' reports.
package fleet

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// Options configure one sweep: they are the runner's, since the runner
// executes it.
type Options = runner.Options

// cacheKey identifies the shared-cache unit: missions agree on every
// cache input iff they agree on the vehicle profile and the (bitwise)
// control period. Profiles come from the vehicle registry, so the name
// identifies the parameter set.
type cacheKey struct {
	profile vehicle.ProfileName
	dtBits  uint64
}

// caches is the process-wide shared-cache registry. Caches are pure
// functions of their key and immutable once built, so they live for the
// life of the process and are reused across sweeps (and across service
// requests). Per-key lookup only — the map is never iterated.
var caches = struct {
	sync.Mutex
	m map[cacheKey]*core.Shared
}{m: make(map[cacheKey]*core.Shared)}

// SharedFor returns the process-wide shared cache for a (profile, dt)
// pair, building it on first use. dt <= 0 selects sim's 0.01 s default,
// so explicit-0.01 and defaulted configs share one cache.
func SharedFor(p vehicle.Profile, dt float64) (*core.Shared, error) {
	if dt <= 0 {
		dt = 0.01
	}
	key := cacheKey{profile: p.Name, dtBits: math.Float64bits(dt)}
	caches.Lock()
	defer caches.Unlock()
	sh, ok := caches.m[key]
	if !ok {
		var err error
		sh, err = core.NewShared(p, dt)
		if err != nil {
			return nil, fmt.Errorf("fleet: shared caches for (%s, dt=%v): %w", p.Name, dt, err)
		}
		caches.m[key] = sh
	}
	return sh, nil
}

// Attach points every job whose config has no shared caches yet at the
// process-wide cache for its (profile, dt), in place. A preset
// Config.Shared is kept. A profile that cannot build shared caches still
// executes: its missions run unshared, and any underlying defect (an
// unsolvable DARE, say) surfaces as the same per-mission construction
// error the bare runner would report.
func Attach(jobs []runner.Job) {
	for i := range jobs {
		cfg := &jobs[i].Cfg
		if cfg.Shared != nil {
			continue
		}
		if sh, err := SharedFor(cfg.Profile, cfg.DT); err == nil {
			cfg.Shared = sh
		}
	}
}

// Run attaches the shared caches to the jobs (see Attach) and executes
// them on runner.Run, which hands each free worker the next mission, so
// at most one mission per worker is live. Results are indexed by
// submission order and byte-identical to the bare runner's over the same
// jobs; on error the lowest-indexed failure is returned, labeled, and
// every other job's result is still valid. Cancelling ctx abandons the
// sweep with ctx.Err().
func Run(ctx context.Context, jobs []runner.Job, opt Options) ([]sim.Result, error) {
	Attach(jobs)
	return runner.Run(ctx, jobs, opt)
}
