// Command experiments regenerates the paper's tables and figures on the
// simulated substrate. Each experiment is selectable; "all" runs the full
// evaluation and emits the markdown recorded in EXPERIMENTS.md.
//
// Missions fan out through the engine seam (internal/engine) across a
// deterministic parallel worker pool that shares per-(profile, dt)
// setup caches: -workers changes wall-clock time only, never the
// rendered output. -report additionally writes the versioned
// machine-readable run report (internal/telemetry): detection-latency
// distributions, diagnosis precision/recall inputs, recovery RMSD,
// per-stage cost-model totals, and one event trace per experiment —
// byte-identical at any -workers setting.
//
// -campaign runs a declarative Monte-Carlo study (internal/campaign)
// from a JSON spec file instead of the experiment registry: the sweep is
// partitioned into -shards deterministic shards, each finished shard's
// partial report is checkpointed atomically under -checkpoint, -resume
// skips already-checkpointed shards after an interruption (even kill
// -9), and the merged versioned study report goes to -out. The study's
// bytes are invariant to -workers, -shards, and interruption history.
// -halt-after stops after N shards with exit 3 — the interrupt/resume
// replay hook used by CI.
//
// Usage:
//
//	experiments -exp all -missions 25 -seed 1 [-workers 0] [-out EXPERIMENTS.md] [-report report.json]
//	experiments -campaign spec.json [-shards 16] [-checkpoint dir [-resume]] [-out study.json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// options carries the parsed command line into run.
type options struct {
	exp        string
	missions   int
	seed       int64
	windCap    float64
	workers    int
	out        string
	report     string
	progress   bool
	campaign   string
	shards     int
	checkpoint string
	resume     bool
	haltAfter  int
	flagsSeen  map[string]bool
}

func main() {
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(experiments.Names(), ", ")+", fig8a")
	missions := flag.Int("missions", 25, "missions per condition (paper: 100)")
	seed := flag.Int64("seed", 1, "master seed")
	windCap := flag.Float64("wind", 3, "mission wind cap in m/s")
	workers := flag.Int("workers", 0, "parallel mission workers (0 = all CPUs); output is identical at any setting")
	out := flag.String("out", "", "output file (default stdout)")
	report := flag.String("report", "", "write the machine-readable run report (JSON) to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off by default")
	progress := flag.Bool("progress", false, "report per-sweep mission completion on stderr")
	campaignSpec := flag.String("campaign", "", "run a campaign study from this spec file (JSON) instead of the experiment registry; writes the versioned study report to -out")
	shards := flag.Int("shards", 1, "campaign shard count; more shards mean finer checkpoints, never different bytes")
	checkpoint := flag.String("checkpoint", "", "campaign checkpoint directory: each finished shard's partial report is persisted atomically")
	resume := flag.Bool("resume", false, "reuse valid checkpoints in -checkpoint, skipping completed shards")
	haltAfter := flag.Int("halt-after", 0, "stop (exit 3) after this many shards this run — the interrupt/resume replay hook; requires -checkpoint")
	flag.Parse()

	o := options{
		exp: *exp, missions: *missions, seed: *seed, windCap: *windCap,
		workers: *workers, out: *out, report: *report, progress: *progress,
		campaign: *campaignSpec, shards: *shards, checkpoint: *checkpoint,
		resume: *resume, haltAfter: *haltAfter,
		flagsSeen: make(map[string]bool),
	}
	flag.Visit(func(f *flag.Flag) { o.flagsSeen[f.Name] = true })

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(exitCode(err))
	}
}

// usageErr marks a command-line usage mistake — as opposed to a runtime
// failure — so main can exit with the conventional usage code, mirroring
// cmd/delorean's convention.
type usageErr struct{ err error }

func (e usageErr) Error() string { return e.err.Error() }
func (e usageErr) Unwrap() error { return e.err }

// usagef builds a usage error (exit code 2).
func usagef(format string, args ...any) error {
	return usageErr{err: fmt.Errorf(format, args...)}
}

// exitCode maps an error to the process exit code: 2 for usage mistakes
// (explicit usagef, invalid mission configs), 3 for a campaign halted by
// -halt-after (checkpoints intact, resume to continue), 1 for everything
// else.
func exitCode(err error) int {
	var ue usageErr
	var ce *sim.ConfigError
	if errors.As(err, &ue) || errors.As(err, &ce) {
		return 2
	}
	if errors.Is(err, campaign.ErrHalted) {
		return 3
	}
	return 1
}

// flagRule declares one dependency or exclusion between flags. A rule
// fires only when its flag is enabled (see options.enabled); every
// required flag must then be enabled too, and no conflicting flag may
// be. All inter-flag constraints live in this one table — a new flag
// adds a row, not an ad-hoc check.
type flagRule struct {
	flag      string
	requires  []string
	conflicts []string
}

// flagRules are the command's inter-flag constraints.
var flagRules = []flagRule{
	{flag: "shards", requires: []string{"campaign"}},
	{flag: "checkpoint", requires: []string{"campaign"}},
	{flag: "resume", requires: []string{"campaign", "checkpoint"}},
	{flag: "halt-after", requires: []string{"campaign", "checkpoint"}},
	// A campaign's sweep lives in its spec file; the registry-experiment
	// selection and scaling flags would silently not apply.
	{flag: "campaign", conflicts: []string{"exp", "missions", "seed", "wind", "report"}},
}

// enabled reports whether a flag is in effect: boolean and string flags
// by their value (so -resume=false leaves its rule unfired), the rest by
// having been passed explicitly.
func (o options) enabled(name string) bool {
	switch name {
	case "resume":
		return o.resume
	case "campaign":
		return o.campaign != ""
	case "checkpoint":
		return o.checkpoint != ""
	default:
		return o.flagsSeen[name]
	}
}

// validate applies the flag-rule table, then the per-flag value checks.
func (o options) validate() error {
	for _, r := range flagRules {
		if !o.enabled(r.flag) {
			continue
		}
		for _, req := range r.requires {
			if !o.enabled(req) {
				return usagef("-%s requires -%s", r.flag, req)
			}
		}
		for _, c := range r.conflicts {
			if o.enabled(c) {
				return usagef("-%s conflicts with -%s", r.flag, c)
			}
		}
	}
	if o.flagsSeen["shards"] && o.shards < 1 {
		return usagef("-shards must be at least 1, got %d", o.shards)
	}
	if o.flagsSeen["halt-after"] && o.haltAfter < 1 {
		return usagef("-halt-after must be at least 1, got %d", o.haltAfter)
	}
	return nil
}

// servePprof exposes the standard pprof endpoints for profiling a run.
// Diagnostics only — it never touches experiment output or the report.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: pprof:", err)
	}
}

func run(ctx context.Context, o options) error {
	if err := o.validate(); err != nil {
		return err
	}
	if o.campaign != "" {
		return runCampaign(ctx, o)
	}
	var w io.Writer = os.Stdout
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	opt := experiments.Options{
		Missions: o.missions, Seed: o.seed, Wind: o.windCap, Workers: o.workers,
	}
	if o.progress {
		opt.Progress = func(completed, total int) {
			if completed == total || completed%10 == 0 {
				fmt.Fprintf(os.Stderr, "  sweep %d/%d\r", completed, total)
			}
		}
	}
	if o.report != "" {
		opt.Collector = telemetry.NewCollector()
	}

	runErr := runExperiments(ctx, o.exp, w, opt)
	if runErr != nil {
		return runErr
	}
	if o.report == "" {
		return nil
	}
	return writeReport(o.report, opt.Collector, telemetry.Meta{
		Generator: "cmd/experiments",
		Missions:  o.missions,
		Seed:      o.seed,
		Wind:      o.windCap,
	})
}

// runCampaign runs one campaign study: load the spec, partition into
// shards, execute (or resume) with checkpoints, and write the merged
// versioned study report to -out (or stdout). The report's bytes are
// invariant to -workers, -shards, and any interruption history.
func runCampaign(ctx context.Context, o options) error {
	f, err := os.Open(o.campaign)
	if err != nil {
		return fmt.Errorf("campaign spec: %w", err)
	}
	var spec campaign.Spec
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	err = dec.Decode(&spec)
	f.Close()
	if err != nil {
		return fmt.Errorf("campaign spec %s: %w", o.campaign, err)
	}
	c, err := campaign.New(spec)
	if err != nil {
		return err
	}
	opt := campaign.Options{
		Workers:   o.workers,
		Shards:    o.shards,
		Dir:       o.checkpoint,
		Resume:    o.resume,
		HaltAfter: o.haltAfter,
	}
	if o.progress {
		opt.ShardDone = func(done, total int) {
			fmt.Fprintf(os.Stderr, "  shard %d/%d\n", done, total)
		}
	}
	study, err := c.Run(ctx, opt)
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if o.out != "" {
		out, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer out.Close()
		w = out
	}
	return study.WriteJSON(w)
}

// runExperiments dispatches the selected experiment(s).
func runExperiments(ctx context.Context, exp string, w io.Writer, opt experiments.Options) error {
	if exp != "all" {
		e, ok := experiments.Get(exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have: all, %s)", exp, strings.Join(experiments.Names(), ", "))
		}
		return timed(ctx, e, w, opt)
	}
	for _, e := range experiments.All() {
		if err := timed(ctx, e, w, opt); err != nil {
			return err
		}
	}
	return nil
}

// writeReport assembles and writes the versioned run report.
func writeReport(path string, col *telemetry.Collector, meta telemetry.Meta) error {
	rep, err := col.Report(meta)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs one experiment with a stderr progress line. The timing lines
// go to stderr precisely so the -out artifact stays byte-identical across
// runs and worker counts.
func timed(ctx context.Context, e experiments.Experiment, w io.Writer, opt experiments.Options) error {
	start := time.Now()
	fmt.Fprintf(os.Stderr, "running %s (missions=%d seed=%d workers=%d)...\n", e.Name(), opt.Missions, opt.Seed, opt.Workers)
	if err := e.Run(ctx, w, opt); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s done in %s\n", e.Name(), time.Since(start).Round(time.Second))
	return nil
}
