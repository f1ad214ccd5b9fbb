package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {5, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 300, 5000)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 300, 5000)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 300, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds drew the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d: %v after %v", i, a[i], a[i-1])
		}
	}
	if rate := float64(len(a)) / a[len(a)-1].Seconds(); math.Abs(rate-300)/300 > 0.05 {
		t.Errorf("mean arrival rate %.1f/s, want 300/s within 5%%", rate)
	}
}

// TestOpenLoopChargesStalls stalls the only sender on the first request:
// every request queued behind it must be charged the wait from its own
// due time, and be seen as backlog.
func TestOpenLoopChargesStalls(t *testing.T) {
	const stall = 60 * time.Millisecond
	due := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond}
	slots := openLoop(due, 1, func(_, i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i, s := range slots {
		if s.due != due[i] {
			t.Errorf("request %d: due %v, want %v", i, s.due, due[i])
		}
		if s.latency() < stall-due[i] {
			t.Errorf("request %d: latency %v, want at least %v", i, s.latency(), stall-due[i])
		}
		if i > 0 && s.late() < stall-due[i] {
			t.Errorf("request %d: sent %v late, want at least %v", i, s.late(), stall-due[i])
		}
	}
	if slots[1].backlog != 2 {
		t.Errorf("backlog behind the stall = %d, want 2", slots[1].backlog)
	}
}

// TestLatencyExcludesTimerLateness: a sender that was idle when its
// request came due charges only from when its timer let it send; a
// sender still busy at the due time charges from the due time.
func TestLatencyExcludesTimerLateness(t *testing.T) {
	ms := time.Millisecond
	idle := reqSlot{due: 10 * ms, took: 2 * ms, sent: 11 * ms, done: 13 * ms}
	if got := idle.latency(); got != 2*ms {
		t.Errorf("idle sender woken 1 ms late: latency %v, want 2ms", got)
	}
	busy := reqSlot{due: 10 * ms, took: 12 * ms, sent: 12 * ms, done: 15 * ms}
	if got := busy.latency(); got != 5*ms {
		t.Errorf("sender busy 2 ms past the due time: latency %v, want 5ms", got)
	}
}

func TestFailedRequestsMissEveryLimit(t *testing.T) {
	slots := make([]reqSlot, 20)
	for i := range slots {
		slots[i] = reqSlot{due: 0, done: time.Millisecond, ok: i != 0 && i != 1}
	}
	lat := summarize(latenciesMS(slots))
	if lat.n != 20 || lat.tailPct != 50 || lat.p50 != 1 {
		t.Errorf("summary = %+v, want n 20, tail p50, median 1 ms", lat)
	}
	for i := 0; i < 12; i++ {
		slots[i].ok = false
	}
	if lat := summarize(latenciesMS(slots)); !math.IsInf(lat.p50, 1) {
		t.Errorf("median with 12 of 20 failed = %g, want +Inf", lat.p50)
	}
}
