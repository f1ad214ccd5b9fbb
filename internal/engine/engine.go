// Package engine is the one deterministic mission executor. The paper's
// evaluation is embarrassingly parallel — hundreds of independent seeded
// missions per table — so every experiment, campaign shard and service
// request pre-draws its full job list (consuming its master-seeded rng
// exactly as a serial sweep would) and submits it to a Pool: a fixed set
// of executor shards pulling missions one at a time from one bounded
// queue. Finished jobs are released, and their telemetry reduced,
// strictly in submission order, so output is byte-identical at any worker
// or shard count: randomness is fixed before fan-out, and aggregation
// never observes completion order.
//
// Every submission attaches the process-wide per-(profile, dt) shared
// caches (internal/fleet's SharedFor registry) to its jobs. Two Engines
// front the pool, and both are Pool.Run: Runner() runs each sweep on a
// pool of its own, sized to the sweep and closed after it, while the
// mission service's long-lived *Pool adds all-or-nothing admission and
// streams each ticket as it is released. Consequently the engines are
// interchangeable byte for byte — same jobs, same result bytes, same
// report bytes, at any worker count or pool shard count — which is what
// lets the campaign layer (internal/campaign) treat engine choice as a
// pure throughput knob.
package engine

import (
	"context"
	"runtime"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Job is one pre-drawn mission: a fully specified sim.Config carrying its
// own derived seed and its own stateful collaborators (diagnoser,
// detector, attack schedule, sensor source) so the job shares no mutable
// state with its neighbors. In particular a Config.Source is a
// single-mission cursor — give every job a fresh one (e.g. one
// source.Replay per job over a shared decoded trace). Label names the job
// in errors (it should include the seed).
type Job struct {
	Label string
	Cfg   sim.Config
}

// Options carry the execution knobs. None of them may change output
// bytes — they trade wall-clock time and memory only.
type Options struct {
	// Workers sizes Runner()'s per-sweep pool; <= 0 means
	// runtime.GOMAXPROCS(0). A long-lived Pool keeps its own shard count.
	Workers int
	// Progress, when non-nil, is called as each job is released, with the
	// number of released jobs and the total. Jobs are released in
	// submission order, so calls are serialized and released counts 1, 2,
	// …, total.
	Progress func(released, total int)
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

// Runner returns the stateless engine: each sweep runs on a pool of its
// own with min(Workers, len(jobs)) shards and a queue that holds the
// whole sweep, closed when the sweep ends.
func Runner() Engine { return runnerEngine{} }

// Fleet returns the same engine as Runner.
//
// Deprecated: use Runner. Fleet remains only for the benchmark module.
func Fleet() Engine { return Runner() }

type runnerEngine struct{}

func (runnerEngine) Name() string { return "runner" }

func (runnerEngine) Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error) {
	if len(jobs) == 0 {
		return []sim.Result{}, ctx.Err()
	}
	p := sweepPool(opt.Workers, len(jobs))
	defer p.Close()
	return p.Run(ctx, jobs, opt)
}

// sweepPool sizes a pool for one sweep of n jobs: workers shards (<= 0
// means runtime.GOMAXPROCS(0)), capped at n, over a queue of depth n.
func sweepPool(workers, n int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return NewPool(min(workers, n), n)
}

// attachShared points every job whose config has no shared caches yet at
// the process-wide cache for its (profile, dt), in place, so a sweep's
// missions reference one DARE solution and one EKF covariance schedule
// instead of rebuilding them per mission. A preset Config.Shared is
// kept. Results are bit-identical with or without the caches
// (TestEnginesByteIdentical pins this). A profile that cannot build
// shared caches still executes: its missions run unshared, and any
// underlying defect (an unsolvable DARE, say) surfaces as the same
// per-mission construction error an uncached sim.RunContext would report.
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

// ReduceTelemetry is the deterministic reduce every sweep shares:
// per-job telemetry is collected strictly in submission order, never
// completion order, so the aggregated run report is byte-identical at
// any worker count. It is a declared root of the puretick proof —
// everything it reaches must stay free of nondeterminism sources.
func ReduceTelemetry(results []sim.Result, c *telemetry.Collector) {
	for i := range results {
		c.Add(results[i].Telemetry)
	}
}
