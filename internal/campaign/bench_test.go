package campaign

// BenchmarkCampaignSharded and BenchmarkEngineDirect race the campaign
// layer against a bare engine run of the same drawn job list: the
// difference is exactly the campaign's sharding, per-shard collection,
// and merge overhead. scripts/bench_compare.sh runs the pair and gates
// BENCH_PR10.json on the ratio staying within noise of 1.0 — sharding a
// study must cost nothing per mission.

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// benchSpec sizes one benchmark iteration: a small real grid with
// shards sized like a real study's — each shard holds enough missions to
// saturate the workers, so the race measures sharding overhead rather
// than an artificially starved tail.
func benchSpec() Spec {
	return Spec{
		Name:          "bench-study",
		Seed:          5,
		Missions:      16,
		Profiles:      []string{"ArduCopter", "ArduRover"},
		AttackSensors: []int{0, 1},
		Onset:         Range{Min: 1, Max: 1.5},
		Duration:      Range{Min: 1, Max: 1.5},
		MaxSec:        3,
	}
}

// reportMissionThroughput attaches the cross-PR headline metric:
// completed missions per wall-clock second per core.
func reportMissionThroughput(b *testing.B, missionsPerOp int) {
	sec := b.Elapsed().Seconds()
	if sec <= 0 {
		return
	}
	cores := float64(runtime.GOMAXPROCS(0))
	b.ReportMetric(float64(missionsPerOp*b.N)/sec/cores, "missions/sec/core")
}

func BenchmarkCampaignSharded(b *testing.B) {
	c, err := New(benchSpec())
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Engine: engine.Fleet(), Shards: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
	}
	reportMissionThroughput(b, c.Jobs())
}

func BenchmarkEngineDirect(b *testing.B) {
	spec := benchSpec().withDefaults()
	jobs, _, err := spec.build()
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.Fleet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, _, err := spec.build()
		if err != nil {
			b.Fatal(err)
		}
		col := telemetry.NewCollector()
		if _, err := eng.Run(context.Background(), fresh, engine.Options{Telemetry: col}); err != nil {
			b.Fatal(err)
		}
		if _, err := col.Report(telemetry.Meta{Generator: "bench"}); err != nil {
			b.Fatal(err)
		}
	}
	reportMissionThroughput(b, len(jobs))
}
