package fleet_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/mission"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// TestSharedForMemoizes pins the registry: same (profile, dt) returns
// the same cache, the zero dt selects the 0.01 default, and distinct
// periods get distinct caches.
func TestSharedForMemoizes(t *testing.T) {
	p := vehicle.MustProfile(vehicle.ArduCopter)
	a, err := fleet.SharedFor(p, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleet.SharedFor(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("dt=0 did not share the 0.01-default cache")
	}
	c, err := fleet.SharedFor(p, 0.02)
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

// shardSuite builds the shape of a campaign shard: short real ArduCopter
// missions, attacked and clean, every draw derived from one master seed.
// Each call builds fresh stateful collaborators (attack schedules), so
// the same suite can be executed more than once.
func shardSuite(n int) []engine.Job {
	rng := rand.New(rand.NewSource(42))
	p := vehicle.MustProfile(vehicle.ArduCopter)
	jobs := make([]engine.Job, n)
	for i := range jobs {
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
		// Draw the attack for every job so the master rng's draw count
		// does not depend on which jobs carry one.
		targets := attack.RandomTargets(rng, 1)
		sda := attack.New(rng, attack.DefaultParams(), targets, 1.0, 2.5)
		if i%3 == 0 {
			cfg.Attacks = attack.NewSchedule(sda)
		}
		jobs[i] = engine.Job{Label: fmt.Sprintf("shard/%d", i), Cfg: cfg}
	}
	return jobs
}

// reportBytes renders a collector's telemetry report.
func reportBytes(t *testing.T, col *telemetry.Collector) []byte {
	t.Helper()
	rep, err := col.Report(telemetry.Meta{Generator: "fleet-test"})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("write report: %v", err)
	}
	return buf.Bytes()
}

// runBare executes jobs serially on sim.RunContext — no executor, and no
// caches unless a job carries them — and renders the telemetry report.
func runBare(t *testing.T, jobs []engine.Job) ([]sim.Result, []byte) {
	t.Helper()
	col := telemetry.NewCollector()
	col.Begin("equiv")
	res := make([]sim.Result, len(jobs))
	for i := range jobs {
		r, err := sim.RunContext(context.Background(), jobs[i].Cfg)
		if err != nil {
			t.Fatalf("bare %s: %v", jobs[i].Label, err)
		}
		res[i] = r
		col.Add(r.Telemetry)
	}
	return res, reportBytes(t, col)
}

// runShard executes jobs on engine.Runner() and renders the telemetry
// report.
func runShard(t *testing.T, jobs []engine.Job, workers int) ([]sim.Result, []byte) {
	t.Helper()
	col := telemetry.NewCollector()
	col.Begin("equiv")
	res, err := engine.Runner().Run(context.Background(), jobs, engine.Options{Workers: workers, Telemetry: col})
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	return res, reportBytes(t, col)
}

// TestFleetShardSweepMatchesRunner is the registry's headline contract
// on the shape of a campaign shard — one profile, attacked and clean
// missions: with every job on the SharedFor caches, results and the
// telemetry report of an engine.Runner() sweep are byte-identical to a
// bare serial loop in which each mission builds its own caches, at
// worker counts 1 and 4.
func TestFleetShardSweepMatchesRunner(t *testing.T) {
	const n = 6
	wantRes, wantReport := runBare(t, shardSuite(n))
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			jobs := shardSuite(n)
			for i := range jobs {
				sh, err := fleet.SharedFor(jobs[i].Cfg.Profile, jobs[i].Cfg.DT)
				if err != nil {
					t.Fatal(err)
				}
				jobs[i].Cfg.Shared = sh
			}
			gotRes, gotReport := runShard(t, jobs, workers)
			if len(gotRes) != len(wantRes) {
				t.Fatalf("results = %d, want %d", len(gotRes), len(wantRes))
			}
			for i := range wantRes {
				if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
					t.Errorf("job %d: result on shared caches diverged from the bare serial reference", i)
				}
			}
			if !bytes.Equal(gotReport, wantReport) {
				t.Errorf("telemetry report differs from the bare serial reference (workers=%d)", workers)
			}
		})
	}
}
