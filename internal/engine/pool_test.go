package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsAllAndReleasesInOrder(t *testing.T) {
	p := NewPool(4, 64)
	defer p.Close()
	const n = 32
	var results [n]int
	tk, err := p.submit(context.Background(), n, func(_ context.Context, i int) error {
		results[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for idx := range tk.Ready() {
		if idx != want {
			t.Fatalf("Ready released %d, want %d (submission order)", idx, want)
		}
		if err := tk.Err(idx); err != nil {
			t.Fatalf("index %d: %v", idx, err)
		}
		want++
	}
	if want != n {
		t.Fatalf("released %d indices, want %d", want, n)
	}
	for i, v := range results {
		if v != i*i {
			t.Errorf("results[%d] = %d, want %d", i, v, i*i)
		}
	}
	st := p.Stats()
	if st.Completed != n || st.Failed != 0 || st.Queued != 0 || st.Active != 0 {
		t.Errorf("stats after batch = %+v", st)
	}
}

// TestPoolQueueFull: submissions are all-or-nothing against the queue
// bound — a batch larger than the free depth is rejected whole, with no
// partial enqueue, even on an idle pool.
func TestPoolQueueFull(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	_, err := p.submit(context.Background(), 2, func(context.Context, int) error { return nil })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit(2) on depth-1 pool: err = %v, want ErrQueueFull", err)
	}
	st := p.Stats()
	if st.Rejected != 1 || st.Submitted != 0 || st.Queued != 0 {
		t.Errorf("stats after rejection = %+v", st)
	}
	// The queue is untouched: a fitting submission still goes through.
	tk, err := p.submit(context.Background(), 1, func(context.Context, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolDrainWaitsForInflight: BeginDrain rejects new submissions
// immediately while the accepted mission keeps running; Drain blocks
// until it completes.
func TestPoolDrainWaitsForInflight(t *testing.T) {
	p := NewPool(2, 8)
	defer p.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	tk, err := p.submit(context.Background(), 1, func(context.Context, int) error {
		close(started)
		<-release
		finished.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	p.BeginDrain()
	if _, err := p.submit(context.Background(), 1, func(context.Context, int) error { return nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit on draining pool: err = %v, want ErrDraining", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- p.Drain(context.Background()) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with work still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !finished.Load() {
		t.Error("Drain returned before the in-flight item finished")
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolDrainTimeout: a Drain whose ctx expires returns the ctx error
// with work still in flight.
func TestPoolDrainTimeout(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	_, err := p.submit(context.Background(), 1, func(context.Context, int) error {
		close(started)
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain with cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestTicketWaitReportsLowestFailure pins the error contract Run
// reports: Wait returns the lowest-indexed failure regardless of
// completion order, and a panic inside fn is converted to an error
// rather than killing a shard.
func TestTicketWaitReportsLowestFailure(t *testing.T) {
	p := NewPool(4, 64)
	defer p.Close()
	tk, err := p.submit(context.Background(), 8, func(_ context.Context, i int) error {
		switch i {
		case 2:
			return fmt.Errorf("boom %d", i)
		case 5:
			panic("shard must survive this")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	werr := tk.Wait()
	if werr == nil || werr.Error() != "job 2: boom 2" {
		t.Fatalf("Wait = %v, want the lowest-indexed failure (job 2)", werr)
	}
	st := p.Stats()
	if st.Failed != 2 || st.Completed != 6 {
		t.Errorf("stats = %+v, want 2 failed / 6 completed", st)
	}
	// The pool is still serviceable after a panic.
	tk2, err := p.submit(context.Background(), 1, func(context.Context, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := tk2.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolSubmissionCtxCancelSkipsQueued: cancelling a submission's ctx
// marks its unstarted items failed with the ctx error instead of running
// them.
func TestPoolSubmissionCtxCancelSkipsQueued(t *testing.T) {
	p := NewPool(1, 8)
	defer p.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	blocker, err := p.submit(context.Background(), 1, func(context.Context, int) error {
		close(started)
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	tk, err := p.submit(ctx, 3, func(context.Context, int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	werr := tk.Wait()
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait after cancel = %v, want context.Canceled", werr)
	}
}

func TestPoolRejectsEmptySubmission(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	if _, err := p.submit(context.Background(), 0, func(context.Context, int) error { return nil }); err == nil {
		t.Error("submit(0) should fail")
	}
	if _, err := p.Submit(context.Background(), nil); err == nil {
		t.Error("Submit of no jobs should fail")
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2, 4)
	p.Close()
	p.Close()
	if _, err := p.submit(context.Background(), 1, func(context.Context, int) error { return nil }); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after Close: err = %v, want ErrDraining", err)
	}
}
