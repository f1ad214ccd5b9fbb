// Command bench is the repository's benchmark. It runs four workloads —
// two campaign studies and two mission-service traffic mixes — through
// the public APIs of the campaign, engine, fleet, sim, source, core,
// trace and service packages, prints every metric by name and unit,
// checks the outputs against committed digests, and ends with one JSON
// result line.
//
//	go run .                                  # every workload, each in its own process
//	go run . -workload study-attack -seed 3   # one workload
//	go run . -trace t.json                    # traced: per-layer metrics, spans to t.<workload>.json
//
// run.sh builds the same program from source and passes its arguments
// through; BENCHMARK.json names it as the benchmark command. See
// README.md for the workloads and the metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// defaultSeed is the seed the goldens were taken at.
const defaultSeed = 11

// runConfig is what one workload run is given.
type runConfig struct {
	seed    int64
	seconds float64
	// root is the repository root.
	root string
	// tmp is a scratch directory inside the checkout, removed after the run.
	tmp string
	// tr records spans; nil for an untraced run.
	tr *tracer
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(rc *runConfig) (*result, error)
}

func workloads() []workload {
	return []workload{
		{"study-attack", studyAttack().run},
		{"study-quiet", studyQuiet().run},
		{"service-live", serviceLive().run},
		{"service-replay", serviceReplay().run},
	}
}

func main() {
	name := flag.String("workload", "", "run one workload; by default every workload runs, each in a child process")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the program under test sees only the inputs drawn from it")
	seconds := flag.Float64("seconds", 25, "measurement time of one workload run")
	traceArg := flag.String("trace", "0", `"0" runs untraced; "1" traces and writes spans to .bench_build/trace/<workload>.json; any other value is the span file`)
	flag.Parse()
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *traceArg))
	}
	for _, w := range workloads() {
		if w.name == *name {
			os.Exit(runOne(w, *seed, *seconds, *traceArg))
		}
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
	os.Exit(2)
}

// runOne runs a workload in this process and prints its result, the JSON
// line last. It returns the exit code.
func runOne(w workload, seed int64, seconds float64, traceArg string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	rc := &runConfig{seed: seed, seconds: seconds, root: root, tmp: tmp}
	tracePath := ""
	switch traceArg {
	case "0", "":
	case "1":
		tracePath = filepath.Join(build, "trace", w.name+".json")
	default:
		tracePath = traceArg
	}
	if tracePath != "" {
		rc.tr = newTracer()
	}
	fmt.Printf("workload %s seed %d seconds %g traced %t\n", w.name, seed, seconds, rc.tr != nil)
	res, err := w.run(rc)
	if err != nil {
		return fail(err)
	}
	if res.attempted > 0 {
		res.set("failed_frac", float64(res.failed)/float64(res.attempted))
	}
	res.writeText(os.Stdout)
	defs := e2eMetrics
	if rc.tr != nil {
		defs = layerMetrics
	}
	line, err := res.resultLine(defs)
	if err != nil {
		return fail(err)
	}
	if rc.tr != nil {
		if err := rc.tr.write(tracePath, w.name, seed, res); err != nil {
			return fail(err)
		}
		fmt.Printf("spans written to %s\n", tracePath)
	}
	fmt.Println(string(line))
	if !res.correct {
		fmt.Fprintf(os.Stderr, "bench: %s: an output check failed\n", w.name)
		return 1
	}
	return 0
}

// runAll runs every workload once, each in a fresh child process so that
// set-up, caches and peak memory belong to one workload.
func runAll(seed int64, seconds float64, traceArg string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads() {
		childTrace := traceArg
		if traceArg != "0" && traceArg != "1" && traceArg != "" {
			ext := filepath.Ext(traceArg)
			childTrace = strings.TrimSuffix(traceArg, ext) + "." + w.name + ext
		}
		cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", childTrace)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// repoRoot finds the repository root: the nearest directory at or above
// the working directory whose go.mod declares module repro.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			first, _, _ := strings.Cut(string(b), "\n")
			if strings.TrimSpace(first) == "module repro" {
				return dir, nil
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return "", err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no go.mod declaring module repro")
		}
		dir = parent
	}
}
