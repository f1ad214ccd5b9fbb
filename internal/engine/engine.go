// Package engine is the unified mission-execution seam: one interface
// over the repo's two execution paths — the stateless parallel runner
// (internal/runner's Run) and the long-lived sharded service pool
// (runner.Pool). Experiments, campaigns and the mission service all
// dispatch through an Engine instead of wiring an executor ad hoc.
//
// Both engines attach the process-wide per-(profile, dt) shared caches
// (internal/fleet's SharedFor registry) to their jobs and dispatch
// missions one at a time to their workers; the pool adds admission
// control and in-order streaming.
//
// The seam's contract is the one both executors honor: jobs are
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
	// Name identifies the engine ("runner", "pool").
	Name() string
	// Run executes the jobs and returns their results indexed by
	// submission order. On error the lowest-indexed failure is returned;
	// successful entries of the result slice are still valid. Cancelling
	// ctx abandons the sweep with ctx.Err().
	Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error)
}

// Runner returns the stateless parallel engine: the shared caches
// attached, then runner.Run, which hands each free worker the next
// mission.
func Runner() Engine { return runnerEngine{} }

// Fleet returns the same engine as Runner.
//
// Deprecated: use Runner. Fleet remains only for the benchmark module.
func Fleet() Engine { return Runner() }

// attachShared points every job whose config has no shared caches yet at
// the process-wide cache for its (profile, dt), in place, so a sweep's
// missions reference one DARE solution and one EKF covariance schedule
// instead of rebuilding them per mission. A preset Config.Shared is
// kept. Results are bit-identical with or without the caches
// (TestEnginesByteIdentical pins this). A profile that cannot build
// shared caches still executes: its missions run unshared, and any
// underlying defect (an unsolvable DARE, say) surfaces as the same
// per-mission construction error a bare runner.Run would report.
func attachShared(jobs []Job) {
	for i := range jobs {
		cfg := &jobs[i].Cfg
		if cfg.Shared != nil {
			continue
		}
		if sh, err := fleet.SharedFor(cfg.Profile, cfg.DT); err == nil {
			cfg.Shared = sh
		}
	}
}

// runnerEngine adapts runner.Run to the seam.
type runnerEngine struct{}

func (runnerEngine) Name() string { return "runner" }

func (runnerEngine) Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error) {
	attachShared(jobs)
	return runner.Run(ctx, jobs, runner.Options{
		Workers: opt.Workers, Progress: opt.Progress, Telemetry: opt.Telemetry,
	})
}
