package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/sensors"
	"repro/internal/service"
	"repro/internal/trace"
)

// testOptions mirrors the flag defaults of main for direct run() tests.
func testOptions() options {
	return options{
		spec: service.MissionSpec{
			RV: "ArduCopter", Defense: "DeLorean", Path: "S",
			AttackStart: 15, AttackDur: 20, Wind: 1, MaxSec: 300, Seed: 1,
		},
	}
}

func TestRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full mission")
	}
	o := testOptions()
	o.spec.Attack = "GPS"
	o.spec.AttackStart, o.spec.AttackDur = 12, 10
	o.spec.Seed = 3
	if err := run(o); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRecordReplayCLI exercises the full -record → -replay → -report
// loop: the replayed mission's report bytes must reproduce the recorded
// run's exactly.
func TestRecordReplayCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("two full missions")
	}
	dir := t.TempDir()
	rec := testOptions()
	rec.spec.Attack = "GPS,gyroscope"
	rec.spec.AttackStart, rec.spec.AttackDur = 12, 10
	rec.spec.Seed = 7
	rec.spec.MaxSec = 45
	rec.recordPath = dir + "/m.trace"
	rec.reportPath = dir + "/live.json"
	if err := run(rec); err != nil {
		t.Fatalf("record run: %v", err)
	}
	rep := options{replayPath: dir + "/m.trace", reportPath: dir + "/replay.json"}
	if err := run(rep); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	live, err := os.ReadFile(dir + "/live.json")
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := os.ReadFile(dir + "/replay.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live, replayed) {
		t.Errorf("replayed report differs from live report:\nlive:   %d bytes\nreplay: %d bytes", len(live), len(replayed))
	}
}

// TestRunRejectsBadInputs verifies run() fails on bad specs and flag
// combinations, and that every usage-class failure maps to exit code 2
// while runtime failures (missing files) stay at 1.
func TestRunRejectsBadInputs(t *testing.T) {
	for _, tt := range []struct {
		name     string
		mutate   func(*options)
		wantExit int
	}{
		{"unknown RV", func(o *options) { o.spec.RV = "NoSuchRV" }, 2},
		{"unknown defense", func(o *options) { o.spec.Defense = "wat" }, 2},
		{"unknown path", func(o *options) { o.spec.Path = "X9" }, 2},
		{"unknown sensor", func(o *options) { o.spec.Attack = "lidar" }, 2},
		{"unknown stealthy mode", func(o *options) { o.spec.Attack = "GPS"; o.spec.Stealthy = "loud" }, 2},
		{"record and replay together", func(o *options) { o.recordPath = "a"; o.replayPath = "b" }, 2},
		{"replay of missing file", func(o *options) { o.replayPath = "/nonexistent/x.trace" }, 1},
	} {
		o := testOptions()
		tt.mutate(&o)
		err := run(o)
		if err == nil {
			t.Errorf("%s: expected error", tt.name)
			continue
		}
		if got := exitCode(err); got != tt.wantExit {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tt.name, err, got, tt.wantExit)
		}
	}
}

// TestUsageErrWraps verifies the usage-error helper preserves the wrapped
// cause for errors.Is/As while still classifying as exit code 2.
func TestUsageErrWraps(t *testing.T) {
	cause := errors.New("boom")
	err := usageErr{err: cause}
	if !errors.Is(err, cause) {
		t.Error("usageErr should unwrap to its cause")
	}
	if got := exitCode(usagef("bad flag %q", "-x")); got != 2 {
		t.Errorf("exitCode(usagef(...)) = %d, want 2", got)
	}
	if got := exitCode(errors.New("io failed")); got != 1 {
		t.Errorf("exitCode(runtime error) = %d, want 1", got)
	}
}

// TestReplayInfiniteRollFinishes replays the committed corpus mission
// with one frame's roll reading set to +Inf, which reaches the angle wrap
// of every tick's error vector. The replay must end, with a report or an
// error, well within the deadline.
func TestReplayInfiniteRollFinishes(t *testing.T) {
	tr, err := trace.ReadFile("../../internal/sim/testdata/attack_mission.trace")
	if err != nil {
		t.Fatal(err)
	}
	tr.Frames[1500].State[sensors.SRoll] = math.Inf(1)
	dir := t.TempDir()
	if err := trace.WriteFile(dir+"/inf.trace", tr); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- run(options{replayPath: dir + "/inf.trace", reportPath: dir + "/report.json"}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Logf("replay ended with an error: %v", err)
			return
		}
		if fi, err := os.Stat(dir + "/report.json"); err != nil || fi.Size() == 0 {
			t.Errorf("replay returned no error but wrote no report (%v)", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("replay did not finish within 60 s")
	}
}
