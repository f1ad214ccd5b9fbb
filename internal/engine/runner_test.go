package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// tinyJobs builds n short real missions with distinct derived seeds.
func tinyJobs(n int) []Job {
	p := vehicle.MustProfile(vehicle.ArduCopter)
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Label: fmt.Sprintf("tiny/%d", i),
			Cfg: sim.Config{
				Profile:   p,
				Plan:      mission.NewStraight(5, 10),
				Strategy:  core.StrategyDeLorean,
				Delta:     core.DefaultDelta(p),
				WindowSec: 5,
				Seed:      int64(100 + i),
				MaxSec:    2,
			},
		}
	}
	return jobs
}

// resultKey projects the fields the experiments reduce over; two runs of
// the same job must agree on all of them.
func resultKey(r sim.Result) string {
	return fmt.Sprintf("%v|%v|%d|%d|%d|%v|%d",
		r.FinalDistance, r.Duration, r.Ticks, r.DefenseNS, r.TotalNS, r.EnergyProxy, len(r.AttitudeSeries))
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	jobs := tinyJobs(6)
	serial, err := Runner().Run(context.Background(), jobs, Options{Workers: 1})
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	parallel, err := Runner().Run(context.Background(), jobs, Options{Workers: 4})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("result lengths = %d, %d, want %d", len(serial), len(parallel), len(jobs))
	}
	for i := range jobs {
		if resultKey(serial[i]) != resultKey(parallel[i]) {
			t.Errorf("job %d: parallel result diverged from serial:\n  serial   %s\n  parallel %s",
				i, resultKey(serial[i]), resultKey(parallel[i]))
		}
	}
	// The seeds differ, so distinct jobs must not alias each other's slot.
	if resultKey(serial[0]) == resultKey(serial[1]) {
		t.Error("distinct seeds produced identical results — jobs may be aliased")
	}
}

// panicDetector panics on the first Update call, simulating a worker
// crash deep inside a mission.
type panicDetector struct{}

func (panicDetector) Update(_, _ sensors.PhysState) bool { panic("detector exploded") }
func (panicDetector) Alert() bool                        { return false }
func (panicDetector) Reset()                             {}

func TestRunConvertsWorkerPanicToLabeledError(t *testing.T) {
	jobs := tinyJobs(4)
	jobs[2].Label = "tiny/poisoned"
	jobs[2].Cfg.Detector = panicDetector{}
	_, err := Runner().Run(context.Background(), jobs, Options{Workers: 2})
	if err == nil {
		t.Fatal("panicking job did not surface an error")
	}
	for _, want := range []string{"job 2", "tiny/poisoned", "panic", "detector exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// TestDoReturnsLowestIndexedError: a ticket's Wait reports the
// lowest-indexed failure regardless of scheduling, unwrapping to the
// callback's own error.
func TestDoReturnsLowestIndexedError(t *testing.T) {
	sentinel := errors.New("boom")
	p := sweepPool(4, 10)
	defer p.Close()
	tk, err := p.submit(context.Background(), 10, func(_ context.Context, i int) error {
		if i >= 2 {
			return fmt.Errorf("i=%d: %w", i, sentinel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tk.Wait()
	var je *jobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v, want *jobError", err)
	}
	if je.index != 2 {
		t.Errorf("error index = %d, want 2 (lowest failure regardless of scheduling)", je.index)
	}
	if !errors.Is(err, sentinel) {
		t.Error("jobError does not unwrap to the original error")
	}
}

// TestDoCancellationStopsDispatch: cancelling a sweep's ctx mid-flight
// skips the items still queued instead of running them.
func TestDoCancellationStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	const n = 50
	p := sweepPool(2, n)
	defer p.Close()
	tk, err := p.submit(ctx, n, func(ctx context.Context, i int) error {
		executed.Add(1)
		if i == 0 {
			cancel()
			return nil
		}
		// Later items block until the cancellation propagates, pinning
		// the shards so the queued rest must observe ctx.Done.
		<-ctx.Done()
		return ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got >= n {
		t.Errorf("all %d items executed despite mid-sweep cancellation", got)
	}
}

func TestRunCancelledContextInterruptsMissions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Runner().Run(ctx, tinyJobs(3), Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDoProgressMonotonicAndComplete: Progress counts released jobs —
// serialized, 1..n, each with the sweep's total.
func TestDoProgressMonotonicAndComplete(t *testing.T) {
	var calls [][2]int
	opt := Options{Workers: 3, Progress: func(released, total int) {
		calls = append(calls, [2]int{released, total}) // serialized by Run
	}}
	if _, err := Runner().Run(context.Background(), tinyJobs(7), opt); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 7 {
		t.Fatalf("progress calls = %d, want 7", len(calls))
	}
	for i, c := range calls {
		if c[0] != i+1 || c[1] != 7 {
			t.Errorf("call %d = %v, want {%d 7}", i, c, i+1)
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	res, err := Runner().Run(context.Background(), nil, Options{Progress: func(int, int) {
		t.Error("progress called for empty sweep")
	}})
	if err != nil || len(res) != 0 {
		t.Errorf("Run(nil) = %d results, %v; want none, nil", len(res), err)
	}
}

// TestWorkersDefaultsAndCaps: a sweep's pool has Workers shards, all CPUs
// by default, capped at the job count, over a queue that holds the
// whole sweep.
func TestWorkersDefaultsAndCaps(t *testing.T) {
	for _, c := range []struct{ workers, n, lo, hi int }{
		{0, 4, 1, 4},
		{8, 3, 3, 3},
		{2, 100, 2, 2},
	} {
		p := sweepPool(c.workers, c.n)
		st := p.Stats()
		p.Close()
		if st.Shards < c.lo || st.Shards > c.hi {
			t.Errorf("sweepPool(%d, %d) shards = %d, want within [%d, %d]", c.workers, c.n, st.Shards, c.lo, c.hi)
		}
		if st.QueueDepth != c.n {
			t.Errorf("sweepPool(%d, %d) queue depth = %d, want %d", c.workers, c.n, st.QueueDepth, c.n)
		}
	}
}
