package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics BENCHMARK.json declares. Every
// workload reports all of them from an untraced run, and the result line
// of an untraced run carries exactly these.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"missions_per_s", "1/s"},
	{"cpu_ms_per_mission", "ms"},
	{"rss_peak_mb", "MB"},
	{"latency_p50_ms", "ms"},
}

// layerMetrics are the per-layer metrics BENCHMARK.json declares: the
// ones every workload's traced run measures. The result line of a traced
// run carries exactly these.
var layerMetrics = []metricDef{
	{"core.tick_us.nominal", "us"},
	{"core.tick_us.p99", "us"},
	{"core.tick_share", "frac"},
	{"core.shared_build_ms", "ms"},
	{"sim.step_us.p50", "us"},
	{"sim.step_us.p99", "us"},
	{"sim.step_self_us", "us"},
	{"sim.new_mission_us", "us"},
	{"sim.finish_us", "us"},
	{"source.sample_us", "us"},
	{"runtime.alloc_kb_per_mission", "KB"},
	{"runtime.gc_cpu_frac", "frac"},
	{"exec.cpu_util", "frac"},
	{"dispatch.overhead_ms", "ms"},
}

// workloadMetrics are per-layer metrics only some workloads exercise. A
// traced run prints the ones it measured; the result line leaves them
// out, because a layer a workload never calls has no value to compare.
var workloadMetrics = []metricDef{
	{"core.tick_us.recovery", "us"},
	{"core.recovery_tick_frac", "frac"},
	{"campaign.new_ms", "ms"},
	{"campaign.self_ms", "ms"},
	{"campaign.checkpoint_kb", "KB"},
	{"engine.run_ms", "ms"},
	{"engine.cpu_util", "frac"},
	{"trace.decode_ms", "ms"},
	{"service.ttfb_ms", "ms"},
	{"service.stream_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.queue_depth_max", "count"},
	{"service.rejected_frac", "frac"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"loadgen.max_ok_rate_per_s", "1/s"},
	{"bench.trace_overhead_frac", "frac"},
	{"failed_frac", "frac"},
}

// unitOf returns the unit of a declared metric.
func unitOf(name string) (string, bool) {
	for _, set := range [][]metricDef{e2eMetrics, layerMetrics, workloadMetrics} {
		for _, d := range set {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}

// result is what one workload run measured and checked.
type result struct {
	attempted int
	failed    int
	// correct is false once any output check fails.
	correct bool
	// checks are the human-readable output-check lines; notes say how the
	// numbers were taken.
	checks []string
	notes  []string
	names  []string
	values map[string]float64
}

func newResult() *result {
	return &result{correct: true, values: make(map[string]float64)}
}

// set records a metric. Names must be declared above: an undeclared name
// is a bug in the benchmark, not an input error.
func (r *result) set(name string, v float64) {
	if _, ok := unitOf(name); !ok {
		panic("bench: undeclared metric " + name)
	}
	if _, seen := r.values[name]; !seen {
		r.names = append(r.names, name)
	}
	r.values[name] = v
}

// check records one output check.
func (r *result) check(ok bool, format string, args ...any) {
	verdict := "ok"
	if !ok {
		verdict = "MISMATCH"
		r.correct = false
	}
	r.checks = append(r.checks, fmt.Sprintf("check %s: %s", verdict, fmt.Sprintf(format, args...)))
}

// note records a line about how the numbers were taken.
func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, "note: "+fmt.Sprintf(format, args...))
}

// writeText prints every check, note and metric, metrics by name and
// unit.
func (r *result) writeText(w io.Writer) {
	for _, c := range r.checks {
		fmt.Fprintln(w, c)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", r.attempted, r.failed)
	for _, name := range r.names {
		unit, _ := unitOf(name)
		fmt.Fprintf(w, "metric %-30s %14.6g %s\n", name, r.values[name], unit)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the one-line JSON result carrying exactly the
// metrics in defs. A declared metric the run did not produce, or one that
// is not a finite number, is an error.
func (r *result) resultLine(defs []metricDef) ([]byte, error) {
	out := jsonResult{
		Correct:   r.correct,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return json.Marshal(out)
}
