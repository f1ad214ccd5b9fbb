package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/vehicle"
)

// study is a campaign-study workload: grid studies run the way
// `experiments -campaign` runs them, on the fleet engine in checkpointed
// shards, one after another until the run's time is up. Each study draws
// its seed from the workload seed. A study's user waits for the study's
// result, so a study's time is the studies' latency.
type study struct {
	name string
	// spec is one study; Seed is set per study.
	spec   campaign.Spec
	shards int
}

// studyAttack is the defense-path study: both vehicle classes under one-
// and two-sensor attacks, with DeLorean and the LQR-O baseline, so
// diagnosis, reconstruction, recovery and the rover's schedule detachment
// do most of the work. Its eight conditions are one shard each.
func studyAttack() study {
	return study{name: "study-attack", shards: 8, spec: campaign.Spec{
		Name:          "bench-study-attack",
		Profiles:      []string{"ArduCopter", "ArduRover"},
		Strategies:    []string{"DeLorean", "LQR-O"},
		AttackSensors: []int{1, 2},
		Missions:      6,
		Onset:         campaign.Range{Min: 5, Max: 10},
		Duration:      campaign.Range{Min: 5, Max: 10},
		MaxSec:        30,
	}}
}

// studyQuiet is the same shape without attacks: only the nominal tick
// path (fusion, detector, autopilot) runs, so a recovery-path change
// should predict no change here.
func studyQuiet() study {
	return study{name: "study-quiet", shards: 8, spec: campaign.Spec{
		Name:          "bench-study-quiet",
		Profiles:      []string{"ArduCopter", "ArduRover"},
		Strategies:    []string{"DeLorean"},
		AttackSensors: []int{0},
		Missions:      32,
		MaxSec:        30,
	}}
}

// campaignFor returns the study drawn with the given seed.
func (s study) campaignFor(seed int64) (*campaign.Campaign, error) {
	spec := s.spec
	spec.Seed = seed
	return campaign.New(spec)
}

// profiles looks up the study's vehicle profiles.
func (s study) profiles() ([]vehicle.Profile, error) {
	out := make([]vehicle.Profile, len(s.spec.Profiles))
	for i, name := range s.spec.Profiles {
		p, err := vehicle.LookupProfile(vehicle.ProfileName(name))
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// setup times what a study pays before its first mission: campaign.New
// and a cold build of each profile's shared caches, which is the work a
// cold fleet.SharedFor does. Then it fills the fleet's process-wide cache,
// untimed, so that no study pays for it.
func (s study) setup(seed int64, seconds float64) ([]float64, error) {
	profiles, err := s.profiles()
	if err != nil {
		return nil, err
	}
	times, err := timeSetups(seconds, func() (func() error, error) {
		if _, err := s.campaignFor(seed); err != nil {
			return nil, err
		}
		for _, p := range profiles {
			if _, err := core.NewShared(p, simDT); err != nil {
				return nil, err
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range profiles {
		if _, err := fleet.SharedFor(p, simDT); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// studyRun is one executed study.
type studyRun struct {
	jobs int
	// complete is set when the study and its report count every mission.
	complete  bool
	digest    string
	wall, cpu time.Duration
	// shardMS is each shard's time to its checkpoint, in shard order.
	shardMS      []float64
	checkpointKB float64
}

// runOnce runs the campaign on eng with checkpoints in a fresh directory.
func (s study) runOnce(c *campaign.Campaign, rc *runConfig, eng engine.Engine) (studyRun, error) {
	dir, err := os.MkdirTemp(rc.tmp, s.name+"-")
	if err != nil {
		return studyRun{}, err
	}
	defer os.RemoveAll(dir)
	out := studyRun{jobs: c.Jobs()}
	u0, err := sampleUsage()
	if err != nil {
		return studyRun{}, err
	}
	last := u0.wall
	st, err := c.Run(context.Background(), campaign.Options{
		Engine: eng, Workers: runtime.GOMAXPROCS(0), Shards: s.shards, Dir: dir,
		// The lint resolves this callback by its signature, as it does the
		// fleet's progress callbacks on the tick path, so it reads the wall
		// clock through the clock seam.
		ShardDone: func(int, int) {
			now := clock.Now()
			out.shardMS = append(out.shardMS, msOf(now.Sub(last)))
			last = now
		},
	})
	if err != nil {
		return studyRun{}, err
	}
	u1, err := sampleUsage()
	if err != nil {
		return studyRun{}, err
	}
	d := u1.since(u0)
	out.wall, out.cpu = d.wall, d.cpu
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		return studyRun{}, err
	}
	sum := sha256.Sum256(buf.Bytes())
	out.digest = hex.EncodeToString(sum[:])
	out.complete = st.Jobs == c.Jobs() && st.Report.Totals.Jobs == c.Jobs()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return studyRun{}, err
	}
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return studyRun{}, err
		}
		out.checkpointKB += float64(fi.Size()) / 1024
	}
	return out, nil
}

// runFor runs studies on eng, drawing each study's seed from rng, until
// dur has passed; it always runs at least one.
func (s study) runFor(rc *runConfig, rng *rand.Rand, dur time.Duration, eng engine.Engine) ([]*campaign.Campaign, []studyRun, error) {
	var cs []*campaign.Campaign
	var runs []studyRun
	for start := time.Now(); len(runs) == 0 || time.Since(start) < dur; {
		c, err := s.campaignFor(rng.Int63())
		if err != nil {
			return nil, nil, err
		}
		run, err := s.runOnce(c, rc, eng)
		if err != nil {
			return nil, nil, err
		}
		cs = append(cs, c)
		runs = append(runs, run)
	}
	return cs, runs, nil
}

// verify checks that every study reported every mission and, where a
// golden digest exists for the workload seed and the study's size, that
// the first study's report bytes match it. Otherwise it prints the first
// study's digest, so that two runs can be compared.
func (s study) verify(res *result, seed int64, runs []studyRun) {
	complete := 0
	for _, r := range runs {
		if r.complete {
			complete++
		}
	}
	res.check(complete == len(runs), "%s: %d of %d studies report every mission", s.name, complete, len(runs))
	first := runs[0]
	if want, ok := goldenDigest(s.name, seed, first.jobs); ok {
		res.check(first.digest == want, "%s seed %d: first study sha256 %s, golden %s", s.name, seed, first.digest, want)
	} else {
		res.note("%s seed %d: first study sha256 %s (no golden for this seed and size)", s.name, seed, first.digest)
	}
}

// sameStudies checks that a pass reproduced the base pass's study bytes.
func (s study) sameStudies(res *result, base, runs []studyRun, pass string) {
	same := 0
	for k := range runs {
		if runs[k].digest == base[k].digest {
			same++
		}
	}
	res.check(same == len(base), "%s %s pass: %d of %d studies reproduce the untraced study bytes", s.name, pass, same, len(base))
}

func (s study) run(rc *runConfig) (*result, error) {
	if rc.tr != nil {
		return s.runTraced(rc)
	}
	res := newResult()
	setup, err := s.setup(rc.seed, rc.seconds)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res.set("setup_s", median(setup))
	rng := rand.New(rand.NewSource(rc.seed))
	_, runs, err := s.runFor(rc, rng, time.Duration(rc.seconds*float64(time.Second)), engine.Fleet())
	if err != nil {
		return nil, err
	}
	s.verify(res, rc.seed, runs)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	var wall, cpu time.Duration
	var studyMS, slowestMS []float64
	for _, r := range runs {
		res.attempted += r.jobs
		wall += r.wall
		cpu += r.cpu
		studyMS = append(studyMS, msOf(r.wall))
		slowestMS = append(slowestMS, slices.Max(r.shardMS))
	}
	res.set("missions_per_s", float64(res.attempted)/wall.Seconds())
	res.set("cpu_ms_per_mission", msOf(cpu)/float64(res.attempted))
	res.set("rss_peak_mb", rss)
	res.set("latency_p50_ms", median(studyMS))
	res.note("%d set-ups; %d studies × %d missions in %d checkpointed shards, %.1f s; study times %s ms; slowest shard of each study %s ms",
		len(setup), len(runs), runs[0].jobs, s.shards, wall.Seconds(), fmtMS(studyMS), fmtMS(slowestMS))
	return res, nil
}

// fmtMS lists ms values to a tenth of a millisecond.
func fmtMS(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}

// timedEngine wraps an engine and records a span, wall time and process
// CPU time around each of its Run calls.
type timedEngine struct {
	inner  engine.Engine
	tr     *tracer
	parent int
	calls  int
	wall   time.Duration
	cpu    time.Duration
}

func (e *timedEngine) Name() string { return e.inner.Name() }

func (e *timedEngine) Run(ctx context.Context, jobs []engine.Job, opt engine.Options) ([]sim.Result, error) {
	u0, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	span := e.tr.begin("engine.Run", e.parent, e.inner.Name())
	out, err := e.inner.Run(ctx, jobs, opt)
	e.tr.end(span)
	u1, uerr := sampleUsage()
	if err == nil {
		err = uerr
	}
	d := u1.since(u0)
	e.calls++
	e.wall += d.wall
	e.cpu += d.cpu
	return out, err
}

// runTraced runs the studies three times over: untraced on the fleet for
// a third of the run, then the same studies traced on the fleet behind a
// timing wrapper (campaign and engine spans), then on the bench-local
// stepped engine (mission, source and Tick timings). Every pass must
// produce the same study bytes.
func (s study) runTraced(rc *runConfig) (*result, error) {
	res := newResult()
	tr := rc.tr
	if err := sharedBuildMS(res, s.spec.Profiles); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(rc.seed))
	third := time.Duration(rc.seconds / 3 * float64(time.Second))
	cs, base, err := s.runFor(rc, rng, third, engine.Fleet())
	if err != nil {
		return nil, err
	}
	s.verify(res, rc.seed, base)
	var newMS []float64
	jobs := 0
	var baseWall time.Duration
	for k := range cs {
		t0 := time.Now()
		if _, err := s.campaignFor(cs[k].Spec().Seed); err != nil {
			return nil, err
		}
		t1 := time.Now()
		tr.add("campaign.New", 0, fmt.Sprintf("study-%d", k), t0, t1)
		newMS = append(newMS, msOf(t1.Sub(t0)))
		jobs += base[k].jobs
		baseWall += base[k].wall
	}
	res.set("campaign.new_ms", median(newMS))

	timed := &timedEngine{inner: engine.Fleet(), tr: tr}
	fleetRuns := make([]studyRun, len(cs))
	var fleetWall time.Duration
	var checkpointKB float64
	u0, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	for k, c := range cs {
		timed.parent = tr.begin("campaign.Run", 0, fmt.Sprintf("fleet study-%d", k))
		fleetRuns[k], err = s.runOnce(c, rc, timed)
		tr.end(timed.parent)
		if err != nil {
			return nil, err
		}
		fleetWall += fleetRuns[k].wall
		checkpointKB += fleetRuns[k].checkpointKB
	}
	u1, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	s.sameStudies(res, base, fleetRuns, "traced fleet")
	d := u1.since(u0)
	engineUtil := float64(timed.cpu) / (float64(timed.wall) * float64(runtime.GOMAXPROCS(0)))
	selfMS := msOf(fleetWall-timed.wall) / float64(len(cs))
	res.set("engine.run_ms", msOf(timed.wall)/float64(timed.calls))
	res.set("engine.cpu_util", engineUtil)
	res.set("exec.cpu_util", engineUtil)
	res.set("campaign.self_ms", selfMS)
	res.set("dispatch.overhead_ms", msOf(fleetWall-timed.wall)/float64(jobs))
	res.set("campaign.checkpoint_kb", checkpointKB/float64(len(cs)))
	res.set("runtime.alloc_kb_per_mission", float64(d.allocBytes)/1024/float64(jobs))
	res.set("runtime.gc_cpu_frac", d.gcFrac)
	res.set("bench.trace_overhead_frac", fleetWall.Seconds()/baseWall.Seconds()-1)

	stepped := &steppedEngine{stats: &layerStats{}, tr: tr, replayEvery: replayEvery}
	steppedRuns := make([]studyRun, len(cs))
	var steppedWall time.Duration
	for k, c := range cs {
		stepped.parent = tr.begin("campaign.Run", 0, fmt.Sprintf("stepped study-%d", k))
		steppedRuns[k], err = s.runOnce(c, rc, stepped)
		tr.end(stepped.parent)
		if err != nil {
			return nil, err
		}
		steppedWall += steppedRuns[k].wall
	}
	s.sameStudies(res, base, steppedRuns, "stepped")
	stepped.checkReplays(res, s.name)
	stepped.stats.set(res)
	res.note("studies per pass: %d, missions per pass: %d; untraced %.1f s, traced fleet %.1f s, stepped %.1f s",
		len(cs), jobs, baseWall.Seconds(), fleetWall.Seconds(), steppedWall.Seconds())
	res.attempted = 3 * jobs
	return res, nil
}
