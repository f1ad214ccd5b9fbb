package engine

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/sim"
	"repro/internal/source"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// TestParallelReplayDeterminism: a sweep of replayed missions — each job
// holding its own Replay cursor over the shared decoded trace — produces
// a byte-identical aggregated report at any worker count, same as live
// sweeps do.
func TestParallelReplayDeterminism(t *testing.T) {
	p := vehicle.MustProfile(vehicle.ArduCopter)
	base := sim.Config{
		Profile:   p,
		Plan:      mission.NewStraight(5, 10),
		Strategy:  core.StrategyDeLorean,
		Delta:     core.DefaultDelta(p),
		WindowSec: 5,
		Seed:      42,
		MaxSec:    2,
	}
	rec := source.NewRecorder(sim.NewSimSource(sim.SourceConfig{Profile: p, Seed: base.Seed}))
	live := base
	live.Source = rec
	if _, err := sim.Run(live); err != nil {
		t.Fatalf("record run: %v", err)
	}
	tr := rec.Trace(nil)

	replayJobs := func() []Job {
		jobs := make([]Job, 6)
		for i := range jobs {
			cfg := base
			// A Replay is a single-mission cursor: every job gets a fresh
			// one (the underlying decoded trace is read-only and shared).
			cfg.Source = source.NewReplay(tr)
			jobs[i] = Job{Label: fmt.Sprintf("replay/%d", i), Cfg: cfg}
		}
		return jobs
	}

	report := func(workers int) []byte {
		col := telemetry.NewCollector()
		col.Begin("replay-sweep")
		if _, err := Runner().Run(context.Background(), replayJobs(), Options{Workers: workers, Telemetry: col}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rep, err := col.Report(telemetry.Meta{Generator: "replay-sweep", Missions: 6, Seed: base.Seed})
		if err != nil {
			t.Fatalf("Report: %v", err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}

	serial := report(1)
	parallel := report(8)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("replay sweep report depends on worker count (%d vs %d bytes)", len(serial), len(parallel))
	}
}
