package fleet

// BenchmarkRunner and BenchmarkFleet are the executors' headline pair:
// the same reduced mixed-profile suite executed by the bare
// per-goroutine runner and by the fleet executor, which differ only in
// the fleet's shared caches, both reporting missions/sec/core.
// scripts/bench_compare.sh runs the pair, byte-compares the two engines'
// experiment output (outputs_identical), and gates BENCH_PR9.json on the
// fleet/runner speedup.

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/runner"
)

// benchMissions is the suite size per benchmark iteration: eight
// missions per profile, small enough that one iteration stays in
// benchtime range.
const benchMissions = 16

// reportMissionThroughput attaches the headline metric: completed
// missions per wall-clock second, normalized per core so the number is
// comparable across machines and worker counts.
func reportMissionThroughput(b *testing.B, missionsPerOp int) {
	sec := b.Elapsed().Seconds()
	if sec <= 0 {
		return
	}
	cores := float64(runtime.GOMAXPROCS(0))
	b.ReportMetric(float64(missionsPerOp*b.N)/sec/cores, "missions/sec/core")
}

func BenchmarkRunner(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(context.Background(), reducedSuite(b, benchMissions, mixed), runner.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	reportMissionThroughput(b, benchMissions)
}

func BenchmarkFleet(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), reducedSuite(b, benchMissions, mixed), Options{}); err != nil {
			b.Fatal(err)
		}
	}
	reportMissionThroughput(b, benchMissions)
}
