package engine

import (
	"context"
	"fmt"

	"repro/internal/runner"
	"repro/internal/sim"
)

// Pool adapts a long-lived runner.Pool to the engine seam. Unlike the
// stateless Runner engine it carries admission control — a submission
// that does not fit the pool's bounded queue is rejected whole with
// runner.ErrQueueFull, and a draining pool rejects with
// runner.ErrDraining — and it exposes the pool's in-submission-order
// streaming release (Submit) on top of the synchronous Engine contract
// (Run). The mission service streams; the campaign layer and tests may
// Run.
type Pool struct {
	pool *runner.Pool
}

// NewPool wraps an existing pool. The caller keeps ownership: draining
// and closing remain the caller's job.
func NewPool(p *runner.Pool) *Pool { return &Pool{pool: p} }

// Name identifies the engine.
func (*Pool) Name() string { return "pool" }

// Submit reserves queue slots all-or-nothing and enqueues the jobs,
// returning a Stream that releases finished indices strictly in
// submission order. Errors pass through from runner.Pool.Submit
// (ErrQueueFull, ErrDraining) so callers can shed load.
func (p *Pool) Submit(ctx context.Context, jobs []Job) (*Stream, error) {
	attachShared(jobs)
	results := make([]sim.Result, len(jobs))
	ticket, err := p.pool.Submit(ctx, len(jobs), func(ctx context.Context, i int) error {
		res, err := sim.RunContext(ctx, jobs[i].Cfg)
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Stream{ticket: ticket, results: results}, nil
}

// Run implements Engine on the pool: Submit, drain the stream, and
// mirror the runner's contract — results indexed by submission order,
// lowest-indexed failure reported with the job's label, bare ctx.Err()
// on cancellation, telemetry reduced in submission order only when every
// job succeeded.
func (p *Pool) Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error) {
	st, err := p.Submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	firstErr := -1
	done := 0
	for i := range st.Ready() {
		done++
		if opt.Progress != nil {
			opt.Progress(done, len(jobs))
		}
		if st.Err(i) != nil && firstErr < 0 {
			firstErr = i
		}
	}
	if err := ctx.Err(); err != nil {
		return st.results, err
	}
	if firstErr >= 0 {
		return st.results, fmt.Errorf("engine: pool job %d (%s): %w", firstErr, jobs[firstErr].Label, st.Err(firstErr))
	}
	if opt.Telemetry != nil {
		runner.ReduceTelemetry(st.results, opt.Telemetry)
	}
	return st.results, nil
}

// Stream is the handle to one submission on the pool engine:
// finished indices are released strictly in submission order (Ready
// yields 0, 1, 2, … and is closed after the last), which is what carries
// the engines' byte-identity contract across a streaming consumer at any
// pool shard count.
type Stream struct {
	ticket  *runner.Ticket
	results []sim.Result
}

// Ready yields finished indices in submission order and is closed after
// the last.
func (s *Stream) Ready() <-chan int { return s.ticket.Ready() }

// Err returns the outcome of a released index (nil on success). Only
// valid for indices already received from Ready.
func (s *Stream) Err(i int) error { return s.ticket.Err(i) }

// Result returns the result of a released index. Only valid for indices
// already received from Ready with a nil Err.
func (s *Stream) Result(i int) sim.Result { return s.results[i] }
