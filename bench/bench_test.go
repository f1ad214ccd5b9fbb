package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
)

// tinyWorkloads are the four workloads at sizes that run every code path
// in a few seconds in all.
func tinyWorkloads() []workload {
	attack := studyAttack()
	attack.spec.Missions = 1
	quiet := studyQuiet()
	quiet.spec.Missions = 4
	for _, s := range []*study{&attack, &quiet} {
		s.spec.Onset = campaign.Range{Min: 1, Max: 1.5}
		s.spec.Duration = campaign.Range{Min: 1, Max: 1.5}
		s.spec.MaxSec = 3
	}
	replay := serviceReplay()
	replay.directRuns = 1
	live := serviceLive()
	return []workload{
		{attack.name, attack.run},
		{quiet.name, quiet.run},
		{live.name, live.run},
		{replay.name, replay.run},
	}
}

// benchmarkJSON is the part of BENCHMARK.json that names metrics.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesProgram pins the workload names and the metric
// tables to BENCHMARK.json, names and units both.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, e2eMetrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, e2eMetrics)
	}
	if !reflect.DeepEqual(layer, layerMetrics) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", layer, layerMetrics)
	}
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced at
// tiny sizes: each run must pass its output checks — the traced runs
// include the Tick replays matching Pipeline.Overhead() — and its result
// line must carry every metric BENCHMARK.json declares for the mode, with
// its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			rc := &runConfig{seed: defaultSeed, seconds: 0.5, root: root, tmp: t.TempDir()}
			defs, want := e2eMetrics, e2e
			if traced {
				rc.tr = newTracer()
				defs, want = layerMetrics, layer
			}
			res, err := w.run(rc)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s traced=%t: correct %t, %d of %d failed; checks %v; notes %v",
					w.name, traced, res.correct, res.failed, res.attempted, res.checks, res.notes)
			}
			line, err := res.resultLine(defs)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			var got jsonResult
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			units := map[string]string{}
			for name, m := range got.Metrics {
				units[name] = m.Unit
			}
			if !reflect.DeepEqual(units, want) {
				t.Errorf("%s traced=%t: result line metrics %v, want %v", w.name, traced, units, want)
			}
			if traced && len(rc.tr.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
		}
	}
}
