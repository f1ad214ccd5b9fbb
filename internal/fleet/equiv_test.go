package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// The suites' vehicle-profile cycles: a mixed-profile sweep, and a
// single profile — the shape of a campaign shard.
var (
	mixed  = []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover}
	copter = []vehicle.ProfileName{vehicle.ArduCopter}
)

// reducedSuite builds a deterministic job list: short real missions
// cycling through the given vehicle profiles, attacked and clean, with
// every random draw derived from one master seed. Each call builds fresh
// stateful collaborators (attack schedules), so the same suite can be
// executed independently by both executors.
func reducedSuite(t testing.TB, n int, profiles []vehicle.ProfileName) []runner.Job {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	jobs := make([]runner.Job, n)
	for i := range jobs {
		p := vehicle.MustProfile(profiles[i%len(profiles)])
		cfg := sim.Config{
			Profile:   p,
			Plan:      mission.NewStraight(5, 10),
			Strategy:  core.StrategyDeLorean,
			Delta:     core.DefaultDelta(p),
			WindowSec: 5,
			WindMean:  rng.Float64() * 2,
			WindGust:  0.3,
			WindDir:   rng.Float64() * 6.28,
			Seed:      rng.Int63(),
			MaxSec:    4,
		}
		if i%3 == 0 {
			targets := attack.RandomTargets(rng, 1)
			sda := attack.New(rng, attack.DefaultParams(), targets, 1.0, 2.5)
			cfg.Attacks = attack.NewSchedule(sda)
		} else {
			// Keep the master rng draw count independent of which jobs
			// carry attacks.
			_ = attack.RandomTargets(rng, 1)
			_ = attack.New(rng, attack.DefaultParams(), nil, 1.0, 2.5)
		}
		jobs[i] = runner.Job{Label: fmt.Sprintf("suite/%d", i), Cfg: cfg}
	}
	return jobs
}

// reportBytes renders a collector into the canonical JSON report.
func reportBytes(t *testing.T, c *telemetry.Collector) []byte {
	t.Helper()
	rep, err := c.Report(telemetry.Meta{Generator: "fleet-test"})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("write report: %v", err)
	}
	return buf.Bytes()
}

// runReference executes the suite on the bare per-goroutine runner, so
// every mission builds its own caches.
func runReference(t *testing.T, n int, profiles []vehicle.ProfileName) ([]sim.Result, []byte) {
	t.Helper()
	col := telemetry.NewCollector()
	col.Begin("equiv")
	res, err := runner.Run(context.Background(), reducedSuite(t, n, profiles), runner.Options{Workers: 2, Telemetry: col})
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	return res, reportBytes(t, col)
}

// runFleet executes the suite on the fleet executor and checks that
// every mission ran on the shared caches.
func runFleet(t *testing.T, n int, profiles []vehicle.ProfileName, opt Options) ([]sim.Result, []byte) {
	t.Helper()
	col := telemetry.NewCollector()
	col.Begin("equiv")
	opt.Telemetry = col
	jobs := reducedSuite(t, n, profiles)
	res, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	for i := range jobs {
		if jobs[i].Cfg.Shared == nil {
			t.Errorf("job %d ran without shared caches", i)
		}
	}
	return res, reportBytes(t, col)
}

// TestFleetShardSweepMatchesRunner is the executor's headline contract
// on the shape of a campaign shard — one profile, attacked and clean
// missions: results and the aggregated telemetry report are
// byte-identical to the bare runner's at worker counts 1 and 4.
func TestFleetShardSweepMatchesRunner(t *testing.T) {
	const n = 6
	wantRes, wantReport := runReference(t, n, copter)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			gotRes, gotReport := runFleet(t, n, copter, Options{Workers: workers})
			if len(gotRes) != len(wantRes) {
				t.Fatalf("results = %d, want %d", len(gotRes), len(wantRes))
			}
			for i := range wantRes {
				if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
					t.Errorf("job %d: fleet result diverged from runner", i)
				}
			}
			if !bytes.Equal(gotReport, wantReport) {
				t.Errorf("telemetry report differs from runner reference (workers=%d)", workers)
			}
		})
	}
}

// TestFleetWorkerCountInvariance pins the executor's determinism across
// its own parallelism: 1 worker and 4 workers must emit identical bytes.
func TestFleetWorkerCountInvariance(t *testing.T) {
	const n = 10
	res1, rep1 := runFleet(t, n, mixed, Options{Workers: 1})
	res4, rep4 := runFleet(t, n, mixed, Options{Workers: 4})
	for i := range res1 {
		if !reflect.DeepEqual(res1[i], res4[i]) {
			t.Errorf("job %d: result depends on worker count", i)
		}
	}
	if !bytes.Equal(rep1, rep4) {
		t.Error("telemetry report depends on worker count")
	}
}

// TestFleetLowestIndexedErrorAndSurvivors mirrors the runner's failure
// contract: a broken job fails alone — the other jobs still produce
// valid results — and the reported error is the lowest-indexed one,
// labeled.
func TestFleetLowestIndexedErrorAndSurvivors(t *testing.T) {
	jobs := reducedSuite(t, 6, mixed)
	jobs[3].Label = "suite/broken-a"
	jobs[3].Cfg.DT = -1 // rejected by sim.Config.Validate
	jobs[5].Label = "suite/broken-b"
	jobs[5].Cfg.DT = -1
	res, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err == nil {
		t.Fatal("broken job did not surface an error")
	}
	for _, want := range []string{"job 3", "suite/broken-a"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	wantRes, _ := runReference(t, 6, mixed)
	for _, i := range []int{0, 1, 2, 4} {
		if !reflect.DeepEqual(res[i], wantRes[i]) {
			t.Errorf("surviving job %d diverged from runner reference", i)
		}
	}
}

// TestFleetCancelledContext mirrors the runner: a pre-cancelled context
// returns ctx.Err() without wrapping.
func TestFleetCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, reducedSuite(t, 4, mixed), Options{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err.Error() != context.Canceled.Error() {
		t.Errorf("cancellation error is wrapped: %q", err)
	}
}

// TestSharedForMemoizes pins the registry: same (profile, dt) returns
// the same cache, the zero dt selects the 0.01 default, and distinct
// periods get distinct caches.
func TestSharedForMemoizes(t *testing.T) {
	p := vehicle.MustProfile(vehicle.ArduCopter)
	a, err := SharedFor(p, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedFor(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("dt=0 did not share the 0.01-default cache")
	}
	c, err := SharedFor(p, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("distinct control periods share one cache")
	}
	if !a.Matches(p.Name, 0.01) || !c.Matches(p.Name, 0.02) {
		t.Error("cache does not match its own key")
	}
}
