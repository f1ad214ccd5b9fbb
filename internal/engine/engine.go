// Package engine is the unified mission-execution seam: one interface
// over the repo's execution paths — the per-goroutine parallel runner
// (internal/runner), the shared-cache fleet executor (internal/fleet),
// and the long-lived sharded service pool (runner.Pool). Every consumer
// that used to pick an executor ad hoc (the experiments package's
// Options.Fleet branch, the mission service's attachShared +
// Pool.Submit wiring) now dispatches through an Engine.
//
// Every engine attaches the process-wide per-(profile, dt) shared caches
// to its jobs and dispatches missions one at a time to its workers, so
// the runner and fleet engines differ in name only; the pool adds
// admission control and in-order streaming.
//
// The seam's contract is the one every executor already honors: jobs are
// pre-drawn and fully seeded before submission, results are indexed by
// submission order, telemetry is reduced strictly in submission order,
// and the lowest-indexed failure is the reported error. Consequently the
// engines are interchangeable byte for byte — same jobs, same result
// bytes, same report bytes, at any worker count or pool shard count —
// which is what lets the campaign layer (internal/campaign) treat engine
// choice as a pure throughput knob.
package engine

import (
	"context"
	"fmt"

	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Job is one pre-drawn mission, identical to the runner's job unit: a
// fully specified sim.Config carrying its own derived seed and its own
// stateful collaborators, shared with no other job.
type Job = runner.Job

// Options carry the execution knobs common to every engine. None of
// them may change output bytes — they trade wall-clock time and memory
// only.
type Options struct {
	// Workers is the parallelism; <= 0 means all CPUs.
	Workers int
	// Progress, when non-nil, is called after each job completes with the
	// number of completed jobs and the total. Calls are serialized and
	// completed is strictly increasing; which job finished is unspecified.
	Progress func(completed, total int)
	// Telemetry, when non-nil, receives every job's mission telemetry
	// after the sweep completes, strictly in submission order.
	Telemetry *telemetry.Collector
}

// Engine executes pre-drawn seeded jobs and reduces their results and
// telemetry in submission order. Implementations must be byte-identical
// to one another: for the same job list, the result slice, the reported
// error (lowest-indexed failure), and the telemetry reduce order are
// engine-invariant.
type Engine interface {
	// Name identifies the engine ("runner", "fleet", "pool").
	Name() string
	// Run executes the jobs and returns their results indexed by
	// submission order. On error the lowest-indexed failure is returned;
	// successful entries of the result slice are still valid. Cancelling
	// ctx abandons the sweep with ctx.Err().
	Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error)
}

// Runner returns the per-goroutine parallel runner engine — one
// goroutine per in-flight mission, the latency-optimized default.
func Runner() Engine { return runnerEngine{} }

// Fleet returns the fleet engine — fleet.Run: the shared per-(profile,
// dt) caches attached, then one mission at a time to every worker.
func Fleet() Engine { return fleetEngine{} }

// Names lists the engines constructible by name, in preference order.
func Names() []string { return []string{"runner", "fleet"} }

// ByName resolves a stateless engine from its name. The pool engine is
// excluded: it wraps a caller-owned runner.Pool (see NewPool).
func ByName(name string) (Engine, error) {
	switch name {
	case "runner":
		return runnerEngine{}, nil
	case "fleet":
		return fleetEngine{}, nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (have runner, fleet)", name)
}

// AttachShared points every job whose config has no shared caches yet at
// the process-wide per-(profile, dt) caches (fleet.Attach), so a sweep's
// missions reference one DARE solution, one EKF covariance schedule, and
// one compiled diagnosis graph spec instead of rebuilding them per
// mission. Results are bit-identical with or without the caches (the
// fleet equivalence suite pins this). Every engine applies this
// uniformly, so no dispatcher needs its own cache wiring.
func AttachShared(jobs []Job) { fleet.Attach(jobs) }

// runnerEngine adapts runner.Run to the seam.
type runnerEngine struct{}

func (runnerEngine) Name() string { return "runner" }

func (runnerEngine) Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error) {
	AttachShared(jobs)
	return runner.Run(ctx, jobs, runner.Options{
		Workers: opt.Workers, Progress: opt.Progress, Telemetry: opt.Telemetry,
	})
}

// fleetEngine adapts fleet.Run to the seam. The fleet attaches the
// shared caches itself.
type fleetEngine struct{}

func (fleetEngine) Name() string { return "fleet" }

func (fleetEngine) Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error) {
	return fleet.Run(ctx, jobs, runner.Options{
		Workers: opt.Workers, Progress: opt.Progress, Telemetry: opt.Telemetry,
	})
}
