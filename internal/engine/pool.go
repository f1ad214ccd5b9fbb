package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sim"
)

var (
	// ErrQueueFull rejects a submission that does not fit the bounded
	// queue; the caller should shed load (HTTP 429) and retry later.
	ErrQueueFull = errors.New("engine: pool queue full")
	// ErrDraining rejects a submission to a draining pool; the caller
	// should fail over (HTTP 503).
	ErrDraining = errors.New("engine: pool draining")
)

// PoolStats is a point-in-time snapshot of the pool for /statusz.
type PoolStats struct {
	// Shards is the number of executor goroutines.
	Shards int `json:"shards"`
	// QueueDepth is the bound on queued (not yet executing) items.
	QueueDepth int `json:"queue_depth"`
	// Queued and Active are the current occupancy.
	Queued int `json:"queued"`
	Active int `json:"active"`
	// Draining reports whether the pool has stopped accepting work.
	Draining bool `json:"draining"`
	// Lifetime item counters. Rejected counts whole submissions (not
	// items) refused for queue-full or draining.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`
}

// Pool is the executor: a fixed set of shards pulling from one bounded
// queue. Runner() sizes one per sweep and closes it afterwards; the
// mission service keeps one for as long as it runs. The pool accepts
// submissions (tickets) until it drains, enforces backpressure by
// rejecting submissions that do not fit the queue, and drains
// gracefully — in-flight work finishes, new work is refused. A ticket's
// indices are released strictly in submission order (Ticket.Ready),
// never completion order, so the bytes a consumer derives from a
// submission are identical at any shard count.
//
// Pool is safe for concurrent use. Create with NewPool; stop with Close.
type Pool struct {
	shards int
	depth  int
	tasks  chan poolTask
	wg     sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signals queued+active transitions for Drain
	queued   int
	active   int
	draining bool
	closed   bool
	stats    PoolStats
}

type poolTask struct {
	t *Ticket
	i int
}

// NewPool starts a pool with the given shard count (<= 0 means
// runtime.GOMAXPROCS(0)) and queue depth (<= 0 means 64).
func NewPool(shards, depth int) *Pool {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 64
	}
	p := &Pool{
		shards: shards,
		depth:  depth,
		// Capacity depth keeps every reserved send non-blocking: submit
		// only enqueues after reserving queue slots under mu.
		tasks: make(chan poolTask, depth),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < shards; i++ {
		p.wg.Add(1)
		go p.shard()
	}
	return p
}

// Name identifies the engine.
func (*Pool) Name() string { return "pool" }

// Submit attaches the shared caches to the jobs and enqueues one mission
// per job, all-or-nothing (see submit): a submission that does not fit
// the queue is rejected whole with ErrQueueFull, and a draining pool
// rejects with ErrDraining, so callers can shed load. The returned
// Ticket releases finished indices strictly in submission order and
// serves each released mission's Result.
func (p *Pool) Submit(ctx context.Context, jobs []Job) (*Ticket, error) {
	attachShared(jobs)
	results := make([]sim.Result, len(jobs))
	t, err := p.submit(ctx, len(jobs), func(ctx context.Context, i int) error {
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
	t.results = results
	return t, nil
}

// Run implements Engine on the pool: Submit, then drain the ticket.
// Results are indexed by submission order; the lowest-indexed failure is
// reported with the job's label, a cancelled ctx with a bare ctx.Err(),
// and telemetry is reduced in submission order only when every job
// succeeded. An empty job list returns no results and ctx.Err().
func (p *Pool) Run(ctx context.Context, jobs []Job, opt Options) ([]sim.Result, error) {
	if len(jobs) == 0 {
		return []sim.Result{}, ctx.Err()
	}
	t, err := p.Submit(ctx, jobs)
	if err != nil {
		return nil, err
	}
	released := 0
	for range t.Ready() {
		released++
		if opt.Progress != nil {
			opt.Progress(released, len(jobs))
		}
	}
	if err := ctx.Err(); err != nil {
		return t.results, err
	}
	var je *jobError
	if errors.As(t.Wait(), &je) {
		return t.results, fmt.Errorf("engine: job %d (%s): %w", je.index, jobs[je.index].Label, je.err)
	}
	if opt.Telemetry != nil {
		ReduceTelemetry(t.results, opt.Telemetry)
	}
	return t.results, nil
}

// submit is the callback primitive under Submit: it reserves n queue
// slots all-or-nothing and enqueues fn(ctx, i) for every i in [0, n). It
// never blocks: if the queue cannot hold all n items the whole
// submission is rejected with ErrQueueFull, and a draining pool rejects
// with ErrDraining. fn runs on the pool's shards with the submission's
// ctx; each call should write only into its own index of whatever the
// caller is collecting (the per-index-slot idiom the sharedwrite
// analyzer enforces). Cancelling ctx skips queued items and interrupts
// running ones; they are recorded as failed with ctx's error.
func (p *Pool) submit(ctx context.Context, n int, fn func(ctx context.Context, i int) error) (*Ticket, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: pool submission of %d items", n)
	}
	t := &Ticket{
		ctx:   ctx,
		fn:    fn,
		n:     n,
		errs:  make([]error, n),
		done:  make([]bool, n),
		ready: make(chan int, n),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		p.stats.Rejected++
		return nil, ErrDraining
	}
	if p.queued+n > p.depth {
		p.stats.Rejected++
		return nil, ErrQueueFull
	}
	p.queued += n
	p.stats.Submitted += int64(n)
	// Enqueue under mu: the reservation guarantees capacity, so these
	// sends cannot block, and holding mu excludes a concurrent Close.
	for i := 0; i < n; i++ {
		p.tasks <- poolTask{t: t, i: i}
	}
	return t, nil
}

// shard is one executor goroutine: it pulls queued items until the pool
// closes, running each through its ticket. An item's outcome is counted
// in the stats before the ticket releases it, so a consumer that has
// seen every index released reads stats that include them all.
func (p *Pool) shard() {
	defer p.wg.Done()
	for tk := range p.tasks {
		p.mu.Lock()
		p.queued--
		p.active++
		p.mu.Unlock()

		err := tk.t.execute(tk.i)

		p.mu.Lock()
		p.active--
		if err != nil {
			p.stats.Failed++
		} else {
			p.stats.Completed++
		}
		p.cond.Broadcast()
		p.mu.Unlock()

		tk.t.release(tk.i, err)
		// Yield at every mission boundary. release readies the consumer
		// waiting on Ready, and the runtime's background GC work waits for
		// a scheduling point too; without one a shard starts its next
		// mission at once and both wait for the next forced preemption,
		// which raised peak heap by about 2 MB on the study workloads.
		runtime.Gosched()
	}
}

// BeginDrain flips the pool into draining mode — every new Submit is
// rejected with ErrDraining — without waiting for in-flight work.
func (p *Pool) BeginDrain() {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
}

// Drain flips the pool into draining mode — every new Submit is rejected
// with ErrDraining — and blocks until all queued and active items have
// finished, or ctx expires (returning ctx.Err() with work still in
// flight). Drain does not stop the shards; call Close afterwards to
// reclaim them.
func (p *Pool) Drain(ctx context.Context) error {
	p.BeginDrain()
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.queued+p.active > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		p.cond.Wait()
	}
	return nil
}

// Close marks the pool draining, closes the queue, and waits for the
// shards to finish whatever is already queued. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.draining = true
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}

// Stats returns a consistent snapshot of the pool.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Shards = p.shards
	s.QueueDepth = p.depth
	s.Queued = p.queued
	s.Active = p.active
	s.Draining = p.draining
	return s
}

// Ticket is the handle to one submission. Results are released in
// submission order: Ready yields 0, 1, 2, … as soon as every index up to
// and including that one has finished, and is closed after the last. The
// in-order release is what carries the determinism contract across a
// streaming consumer — the mission service emits identical bytes at any
// shard count.
type Ticket struct {
	ctx     context.Context
	fn      func(context.Context, int) error
	n       int
	results []sim.Result // set by Submit; nil for a bare submit

	mu    sync.Mutex
	errs  []error
	done  []bool
	next  int
	ready chan int
}

// execute runs index i, or skips it with the ctx error when the
// submission's ctx is already done, and returns the outcome; a panic
// inside fn becomes the index's error instead of killing the shard.
func (t *Ticket) execute(i int) (err error) {
	if err := t.ctx.Err(); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return t.fn(t.ctx, i)
}

// release records index i's outcome and releases any newly contiguous
// prefix.
func (t *Ticket) release(i int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.errs[i] = err
	t.done[i] = true
	for t.next < t.n && t.done[t.next] {
		// Never blocks: ready is buffered to the submission size.
		t.ready <- t.next
		t.next++
	}
	if t.next == t.n {
		close(t.ready)
	}
}

// Ready yields finished indices in submission order and is closed after
// index n-1 is released.
func (t *Ticket) Ready() <-chan int { return t.ready }

// Err returns the outcome of a released index (nil on success). Only
// valid for indices already received from Ready.
func (t *Ticket) Err(i int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.errs[i]
}

// Result returns the mission result of a released index. Only valid for
// indices already received from Ready with a nil Err.
func (t *Ticket) Result(i int) sim.Result { return t.results[i] }

// Wait blocks until every index has finished (draining Ready) and
// returns the lowest-indexed failure as a *jobError, so the reported
// error does not depend on scheduling.
func (t *Ticket) Wait() error {
	for range t.ready {
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, err := range t.errs {
		if err != nil {
			return &jobError{index: i, err: err}
		}
	}
	return nil
}

// jobError carries the index of a ticket's lowest failure out of Wait so
// Run can attach the job label.
type jobError struct {
	index int
	err   error
}

func (e *jobError) Error() string { return fmt.Sprintf("job %d: %v", e.index, e.err) }
func (e *jobError) Unwrap() error { return e.err }
