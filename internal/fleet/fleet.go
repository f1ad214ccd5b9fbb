// Package fleet is the process-wide registry of shared mission caches:
// SharedFor builds one core.Shared per (vehicle profile, control period)
// key — the quad recovery LQR gain (a DARE solve) and the EKF
// covariance/gain schedule — once per process instead of once per
// mission. The engine seam (internal/engine) attaches these caches to
// every job it runs. The caches are read-only and bit-identical to what
// each mission would build for itself, so attaching them changes
// throughput only, never a result byte.
package fleet

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/vehicle"
)

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
