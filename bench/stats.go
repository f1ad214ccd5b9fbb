package main

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stat"
)

// tailLadder are the percentiles a tail may be reported at, highest
// first, in tenths of a percent.
var tailLadder = []int{999, 990, 950, 900, 750, 500}

// tailPercentile is the highest percentile of n samples that has at
// least ten samples beyond it; below twenty samples it falls back to the
// median.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10
		}
	}
	return 50
}

// percentile returns the p-th percentile (0..100) of xs.
func percentile(xs []float64, p float64) float64 {
	return stat.Quantile(xs, p/100)
}

// median returns the median of xs.
func median(xs []float64) float64 { return stat.Median(xs) }

// mean returns the mean of xs.
func mean(xs []float64) float64 { return stat.Mean(xs) }

// latencySummary is a latency sample reported as its median and its
// tail.
type latencySummary struct {
	n   int
	p50 float64
	// tail is at tailPct, the highest percentile of the n samples with at
	// least ten samples beyond it. It is printed, not compared: its
	// percentile moves with the sample count, and on a shared machine a
	// tail of millisecond operations follows the host, not the program.
	tail, tailPct float64
}

// summarize reports ms samples by their median and their tail. Failed
// operations are +Inf, so they miss every limit.
func summarize(ms []float64) latencySummary {
	s := latencySummary{n: len(ms), p50: median(ms), tailPct: tailPercentile(len(ms))}
	s.tail = percentile(ms, s.tailPct)
	return s
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupShare is the share of a run's length spent timing set-ups before
// the measurement; setup_s is their median. Rounds spread over a window
// rather than a burst, so a short stall of the machine lifts a few rounds,
// not the median.
const (
	setupShare     = 0.08
	minSetupRounds = 5
	maxSetupRounds = 400
)

// timeSetups calls setup until a setupShare of the run's seconds has
// passed and at least minSetupRounds calls ran, or maxSetupRounds calls
// ran. It returns each call's time in seconds. A call may return a
// release function, which runs after the call is timed.
func timeSetups(seconds float64, setup func() (release func() error, err error)) ([]float64, error) {
	window := time.Duration(setupShare * seconds * float64(time.Second))
	var times []float64
	start := time.Now()
	for len(times) < maxSetupRounds && (len(times) < minSetupRounds || time.Since(start) < window) {
		t0 := time.Now()
		release, err := setup()
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if release != nil {
			if err := release(); err != nil {
				return nil, err
			}
		}
	}
	return times, nil
}

// poissonSchedule draws n arrival offsets of a Poisson process at rate
// per second: exponential gaps from rng, so a seed fixes the schedule.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// reqSlot is one open-loop request: when it was due, when a sender took
// it from the schedule, when it was sent, and how it ended, all as
// offsets from the schedule's start.
type reqSlot struct {
	due, took, sent, done time.Duration
	// backlog is how many requests were due but not yet taken when this
	// one was sent.
	backlog int
	ok      bool
}

// latency is the request's time from when it was due to its end when
// its sender was still busy with an earlier request at the due time: a
// sender stalled by an earlier request is charged to every request
// queued behind it. A sender that was idle at the due time slept until
// it, and the timer may wake it late (by up to a millisecond on Linux);
// that lateness is the load generator's, so such a request is timed from
// when it was sent.
func (s reqSlot) latency() time.Duration {
	if s.took <= s.due {
		return s.done - s.sent
	}
	return s.done - s.due
}

// late is how long after its due time the request was sent.
func (s reqSlot) late() time.Duration { return s.sent - s.due }

// openLoop sends request i no earlier than its due offset from conns
// sender goroutines, each owning one connection. A sender takes the next
// request in schedule order; when it is already late it sends at once.
// send performs request i on connection conn and reports success. Each
// sender writes only the slots of the requests it took.
func openLoop(due []time.Duration, conns int, send func(conn, i int) bool) []reqSlot {
	slots := make([]reqSlot, len(due))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				s := &slots[i]
				s.due = due[i]
				s.took = time.Since(start)
				if wait := s.due - s.took; wait > 0 {
					time.Sleep(wait)
				}
				now := time.Since(start)
				s.sent = now
				s.backlog = max(0, dueBy(due, now)-int(next.Load()))
				s.ok = send(conn, i)
				s.done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return slots
}

// dueBy counts the schedule entries due at or before t.
func dueBy(due []time.Duration, t time.Duration) int {
	lo, hi := 0, len(due)
	for lo < hi {
		mid := (lo + hi) / 2
		if due[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// latenciesMS returns every slot's due-time latency in ms, failed
// requests as +Inf so that they miss every limit.
func latenciesMS(slots []reqSlot) []float64 {
	out := make([]float64, len(slots))
	for i, s := range slots {
		if s.ok {
			out[i] = msOf(s.latency())
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}
