package repro_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each bench runs a scaled-down version of the corresponding experiment in
// internal/experiments (the full-scale runs are driven by
// cmd/experiments, which regenerates EXPERIMENTS.md). Reported custom
// metrics carry the experiment's headline numbers so `go test -bench`
// output doubles as a quick reproduction check.
//
// BenchmarkExperiments drives every registered experiment through the
// registry at both 1 worker and all CPUs, so `-bench Experiments` doubles
// as a local speedup measurement for the parallel executor.

import (
	"context"
	"io"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/experiments"
	"repro/internal/vehicle"
)

// benchOpt keeps each iteration to a handful of missions; the benchmark
// framework's b.N looping provides repetition.
func benchOpt(seed int64) experiments.Options {
	return experiments.Options{Missions: 2, Seed: seed, Wind: 2}
}

// BenchmarkExperiments runs every registered experiment via the registry
// at workers=1 and workers=NumCPU; comparing the two sub-benchmark
// wall-clocks measures the executor's parallel speedup (output is identical
// either way — see TestParallelDeterminism).
func BenchmarkExperiments(b *testing.B) {
	for _, workers := range []int{1, runtime.NumCPU()} {
		for _, e := range experiments.All() {
			e := e
			b.Run(e.Name()+"/workers="+strconv.Itoa(workers), func(b *testing.B) {
				opt := benchOpt(1)
				opt.Workers = workers
				for i := 0; i < b.N; i++ {
					if err := e.Run(context.Background(), io.Discard, opt); err != nil {
						b.Fatalf("%s: %v", e.Name(), err)
					}
				}
			})
		}
	}
}

// BenchmarkTable3Overheads measures the calibration + overhead pipeline
// (δ derivation and DeLorean's CPU/memory accounting) for one real RV.
func BenchmarkTable3Overheads(b *testing.B) {
	ctx := context.Background()
	p := vehicle.MustProfile(vehicle.Pixhawk)
	for i := 0; i < b.N; i++ {
		cal, err := experiments.Calibrate(ctx, p, benchOpt(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		ov, err := experiments.Overheads(ctx, p, cal.Delta, 15, benchOpt(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ov.CPUPercent, "cpu-overhead-%")
		b.ReportMetric(float64(ov.MemoryBytes)/1e6, "ckpt-MB")
	}
}

// BenchmarkFig8aDeltaCalibration measures the attack-free δ-calibration
// pass (Fig. 8a methodology).
func BenchmarkFig8aDeltaCalibration(b *testing.B) {
	p := vehicle.MustProfile(vehicle.ArduCopter)
	for i := 0; i < b.N; i++ {
		cal, err := experiments.Calibrate(context.Background(), p, benchOpt(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		var worst float64 = 1
		for _, f := range cal.FracUnderDelta {
			if f > 0 && f < worst {
				worst = f
			}
		}
		b.ReportMetric(worst, "min-frac-under-delta")
	}
}

// BenchmarkFig8bStealthyWindow measures the stealthy-attack window-sizing
// probe (Fig. 8b).
func BenchmarkFig8bStealthyWindow(b *testing.B) {
	p := vehicle.MustProfile(vehicle.Tarot)
	for i := 0; i < b.N; i++ {
		sw, err := experiments.StealthyWindow(context.Background(), p, benchOpt(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sw.WindowSec, "window-s")
	}
}

// BenchmarkTable4Diagnosis runs the diagnosis TP/FP comparison (Table 4)
// and reports DeLorean's average TP rate.
func BenchmarkTable4Diagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(context.Background(), benchOpt(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Technique == "DeLorean" {
				b.ReportMetric(row.AvgTP, "delorean-avg-tp-%")
			}
		}
	}
}

// BenchmarkTable5Recovery runs the four-technique recovery comparison
// (Table 5) and reports DeLorean's mean mission success.
func BenchmarkTable5Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(context.Background(), benchOpt(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		for t, name := range r.Techniques {
			if name != "DeLorean" {
				continue
			}
			var mean float64
			for k := 0; k < 5; k++ {
				mean += r.Cells[t][k].MissionSucc / 5
			}
			b.ReportMetric(mean, "delorean-mean-ms-%")
		}
	}
}

// BenchmarkTable6TargetedVsWorstCase runs the DeLorean-vs-LQR-O stability
// and delay comparison (Table 6) and reports the subset-attack (k ≤ 3)
// delay ratio the paper quotes as ≈ 2.5×.
func BenchmarkTable6TargetedVsWorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table6(context.Background(), benchOpt(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		var lqro, dl float64
		for k := 0; k < 3; k++ {
			lqro += r.LQRO[k].MissionDly / 3
			dl += r.DeLorean[k].MissionDly / 3
		}
		if dl > 0 {
			b.ReportMetric(lqro/dl, "delay-ratio-lqro-over-delorean")
		}
	}
}

// BenchmarkTable7RealRVs runs the real-RV-profile evaluation (Table 7)
// for one profile per iteration and reports its average TP.
func BenchmarkTable7RealRVs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table7(context.Background(), benchOpt(int64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Rows) > 0 {
			b.ReportMetric(r.Rows[0].AvgTP, "pixhawk-avg-tp-%")
		}
	}
}

// BenchmarkFig2LQROTrace regenerates the worst-case recovery trace of the
// motivating example (Fig. 2) and reports the mission delay.
func BenchmarkFig2LQROTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(context.Background(), experiments.Options{Seed: int64(i) + 1, Missions: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DelayPercent, "delay-%")
		b.ReportMetric(r.RMSD, "rmsd-rad")
	}
}

// BenchmarkFig9DeLoreanTrace regenerates DeLorean's targeted recovery on
// the same scenario (Fig. 9).
func BenchmarkFig9DeLoreanTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(context.Background(), experiments.Options{Seed: int64(i) + 1, Missions: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.DelayPercent, "delay-%")
		b.ReportMetric(r.RMSD, "rmsd-rad")
	}
}

// BenchmarkFig10StealthyRecovery runs the three adaptive stealthy attacks
// (Fig. 10) and reports the worst detection delay.
func BenchmarkFig10StealthyRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig10(context.Background(), experiments.Options{Seed: 23, Missions: 1})
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, r := range rs {
			if r.DetectionDelay > worst {
				worst = r.DetectionDelay
			}
		}
		b.ReportMetric(worst, "worst-detect-delay-s")
	}
}
