// Package runner is the deterministic parallel mission-execution engine.
// The paper's evaluation is embarrassingly parallel — hundreds of
// independent seeded missions per table — so every experiment pre-draws
// its full scenario list (consuming its master-seeded rng exactly as a
// serial sweep would), then submits the resulting jobs here. The pool
// executes them on Workers goroutines and the results are reduced in
// submission order, so experiment output is byte-identical at any worker
// count: randomness is fixed before fan-out, and aggregation never
// observes completion order.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

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

// Options configure one parallel sweep.
type Options struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Progress, when non-nil, is called after each job completes with the
	// number of completed jobs and the total. Calls are serialized, and
	// completed is strictly increasing, but which job finished is
	// unspecified (completion order is scheduling-dependent — only the
	// reduce order is deterministic).
	Progress func(completed, total int)
	// Telemetry, when non-nil, receives every job's mission telemetry
	// after the sweep completes — fed in submission order, never
	// completion order, so the aggregated run report is byte-identical at
	// any worker count.
	Telemetry *telemetry.Collector
}

// workers resolves the effective pool size for n jobs.
func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes the jobs on a worker pool and returns their results
// indexed by submission order. A worker panic is converted to an error
// naming the job. On error the lowest-indexed failure is returned (so the
// reported error does not depend on scheduling); the successful entries
// of the result slice are still valid. Cancelling ctx stops dispatching
// new jobs and interrupts in-flight missions; Run then returns ctx.Err().
func Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error) {
	results := make([]sim.Result, len(jobs))
	err := Do(ctx, len(jobs), opt, func(ctx context.Context, i int) error {
		res, err := sim.RunContext(ctx, jobs[i].Cfg)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	var de *doError
	if errors.As(err, &de) {
		return results, fmt.Errorf("runner: job %d (%s): %w", de.index, jobs[de.index].Label, de.err)
	}
	if err == nil && opt.Telemetry != nil {
		ReduceTelemetry(results, opt.Telemetry)
	}
	return results, err
}

// ReduceTelemetry is the deterministic reduce every engine shares:
// per-job telemetry is collected strictly in submission order, never
// completion order, so the aggregated run report is byte-identical at
// any worker count. It is a declared root of the puretick proof —
// everything it reaches must stay free of nondeterminism sources.
func ReduceTelemetry(results []sim.Result, c *telemetry.Collector) {
	for i := range results {
		c.Add(results[i].Telemetry)
	}
}

// doError carries the job index of a failure out of Do so Run can attach
// the job label.
type doError struct {
	index int
	err   error
}

func (e *doError) Error() string { return fmt.Sprintf("job %d: %v", e.index, e.err) }
func (e *doError) Unwrap() error { return e.err }

// Do is the generic pool primitive under Run: it invokes fn(ctx, i) for
// every i in [0, n) on a worker pool. Each fn call writes into its own
// index of whatever the caller is collecting, so no synchronization is
// needed on the caller side. Panics inside fn are recovered and reported
// as errors. When any fn fails, Do still drains the remaining dispatched
// work and returns the lowest-indexed error (wrapped in a *doError);
// when ctx is cancelled first, it returns ctx.Err().
func Do(ctx context.Context, n int, opt Options, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr *doError
		done     int
	)
	idx := make(chan int)
	for w := opt.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				err := runOne(ctx, i, fn)
				mu.Lock()
				if err != nil && (firstErr == nil || i < firstErr.index) {
					firstErr = &doError{index: i, err: err}
				}
				done++
				if opt.Progress != nil {
					opt.Progress(done, n)
				}
				mu.Unlock()
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if firstErr != nil {
		return firstErr
	}
	return nil
}

// runOne invokes fn for one index, converting a panic to an error.
func runOne(ctx context.Context, i int, fn func(context.Context, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(ctx, i)
}
