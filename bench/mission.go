package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// The sim package's documented defaults, applied here to rebuild a
// mission's pipeline outside the mission.
const (
	simDT        = 0.01
	acceptRadius = 2.0
)

// replayEvery is how often a study's stepped pass captures a mission
// for the Tick replay: every replayEvery-th mission it runs.
const replayEvery = 16

// layerStats accumulates the per-layer timings of missions stepped by a
// steppedEngine. It is owned by one goroutine.
type layerStats struct {
	missions   int
	newMission []float64 // µs per sim.NewMission
	finish     []float64 // µs per Mission.Finish
	steps      []float64 // µs per Mission.Step
	samples    int
	sampleTime time.Duration

	// Over the replayed missions only: their Step, Sample and Tick totals.
	replayed                        int
	replayTicks                     int
	replayStep, replaySample, ticks time.Duration
	tickNominal, tickRecovery       []float64 // µs per replayed Tick
}

// set reports the layer metrics into res.
func (s *layerStats) set(res *result) {
	allTicks := append(append([]float64(nil), s.tickNominal...), s.tickRecovery...)
	res.set("core.tick_us.nominal", mean(s.tickNominal))
	res.set("core.tick_us.p99", percentile(allTicks, 99))
	if len(s.tickRecovery) > 0 {
		res.set("core.tick_us.recovery", mean(s.tickRecovery))
	}
	res.set("core.recovery_tick_frac", float64(len(s.tickRecovery))/float64(len(allTicks)))
	res.set("core.tick_share", float64(s.ticks)/float64(s.replayStep))
	res.set("sim.step_us.p50", percentile(s.steps, 50))
	res.set("sim.step_us.p99", percentile(s.steps, 99))
	res.set("sim.step_self_us", usOf(s.replayStep-s.replaySample-s.ticks)/float64(s.replayTicks))
	res.set("sim.new_mission_us", mean(s.newMission))
	res.set("sim.finish_us", mean(s.finish))
	res.set("source.sample_us", usOf(s.sampleTime)/float64(s.samples))
}

// sharedBuildMS times core.NewShared over the given profiles and records
// the median of five rounds as core.shared_build_ms.
func sharedBuildMS(res *result, names []string) error {
	const rounds = 5
	times := make([]float64, rounds)
	for r := range times {
		t0 := time.Now()
		for _, name := range names {
			p, err := vehicle.LookupProfile(vehicle.ProfileName(name))
			if err != nil {
				return err
			}
			if _, err := core.NewShared(p, simDT); err != nil {
				return err
			}
		}
		times[r] = msOf(time.Since(t0))
	}
	res.set("core.shared_build_ms", median(times))
	return nil
}

// capturedTick is one sensor frame as the pipeline saw it.
type capturedTick struct {
	t    float64
	meas sensors.PhysState
}

// timingSource decorates a mission's sensor source: it times every
// Sample and, when capturing, keeps the frames for the Tick replay.
type timingSource struct {
	inner     sensors.Source
	spent     time.Duration
	calls     int
	capturing bool
	frames    []capturedTick
}

// Sample is on the mission's tick path, so it reads the wall clock only
// through the clock seam the determinism lint allows there.
func (s *timingSource) Sample(tick sensors.Tick) (sensors.Reading, error) {
	t0 := clock.Now()
	rd, err := s.inner.Sample(tick)
	s.spent += clock.Since(t0)
	s.calls++
	if s.capturing && err == nil {
		s.frames = append(s.frames, capturedTick{t: tick.T, meas: rd.State})
	}
	return rd, err
}

func (s *timingSource) AttackMounted() bool { return s.inner.AttackMounted() }

// steppedEngine is a bench-local engine.Engine that runs a call's jobs in
// one lockstep loop through sim.NewMission, Mission.Step and
// Mission.Finish, with the fleet's shared caches and a timingSource in
// place of each mission's sensor source. That exposes every layer below
// the engine to timing while producing the same results as the fleet.
// Every replayEvery-th mission's sensor stream is then replayed into a
// fresh pipeline whose Tick calls are timed; the replay must reproduce
// the mission's modeled overhead exactly.
type steppedEngine struct {
	stats *layerStats
	tr    *tracer
	// replayEvery captures every replayEvery-th mission for the replay.
	replayEvery int
	// parent is the span the engine's spans hang under.
	parent int
	// own collects each mission's own time in NewMission, Step and
	// Finish, excluding its lockstep neighbours, in job order.
	own []time.Duration
	// mismatches describes every replay whose overhead differed from its
	// mission's.
	mismatches []string
}

type lane struct {
	idx   int
	label string
	cfg   sim.Config
	m     *sim.Mission
	src   *timingSource
	span  int
	// own is the mission's time in NewMission, Step and Finish so far.
	own time.Duration
	// steps is the part of own spent in Step.
	steps time.Duration
}

func (e *steppedEngine) Name() string { return "bench-stepped" }

func (e *steppedEngine) Run(ctx context.Context, jobs []engine.Job, opt engine.Options) ([]sim.Result, error) {
	span := e.tr.begin("engine.Run", e.parent, "stepped")
	defer e.tr.end(span)
	results := make([]sim.Result, len(jobs))
	own := make([]time.Duration, len(jobs))
	lanes := make([]*lane, 0, len(jobs))
	for i := range jobs {
		ln, err := e.newLane(i, jobs[i], span)
		if err != nil {
			return nil, fmt.Errorf("job %d (%s): %w", i, jobs[i].Label, err)
		}
		lanes = append(lanes, ln)
	}
	done := 0
	for live := len(lanes); live > 0; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for k, ln := range lanes {
			if ln == nil {
				continue
			}
			t0 := time.Now()
			cont, err := ln.m.Step()
			d := time.Since(t0)
			ln.steps += d
			ln.own += d
			e.stats.steps = append(e.stats.steps, usOf(d))
			if cont {
				continue
			}
			lanes[k] = nil
			live--
			if err != nil {
				return nil, fmt.Errorf("job %d (%s): %w", ln.idx, ln.label, err)
			}
			res, err := e.finish(ln)
			if err != nil {
				return nil, fmt.Errorf("job %d (%s): %w", ln.idx, ln.label, err)
			}
			results[ln.idx] = res
			own[ln.idx] = ln.own
			done++
			if opt.Progress != nil {
				opt.Progress(done, len(jobs))
			}
		}
	}
	e.own = append(e.own, own...)
	if opt.Telemetry != nil {
		for i := range results {
			opt.Telemetry.Add(results[i].Telemetry)
		}
	}
	return results, nil
}

// checkReplays records whether every Tick replay reproduced its
// mission's modeled overhead.
func (e *steppedEngine) checkReplays(res *result, workload string) {
	res.check(e.stats.replayed > 0 && len(e.mismatches) == 0,
		"%s: %d Tick replays reproduce Pipeline.Overhead() exactly, %d do not", workload, e.stats.replayed, len(e.mismatches))
	for _, m := range e.mismatches {
		res.note("replay mismatch %s", m)
	}
}

// newLane builds one mission with the shared caches attached and its
// sensor source wrapped for timing. A simulator-synthesized mission gets
// its attack schedule and dropout moved into an explicit sim.SimSource,
// which draws the same suite seed, so the mission is bit-identical.
func (e *steppedEngine) newLane(idx int, job engine.Job, parent int) (*lane, error) {
	cfg := job.Cfg
	if cfg.Shared == nil {
		sh, err := fleet.SharedFor(cfg.Profile, cfg.DT)
		if err != nil {
			return nil, err
		}
		cfg.Shared = sh
	}
	inner := cfg.Source
	if inner == nil {
		inner = sim.NewSimSource(sim.SourceConfig{
			Profile: cfg.Profile, Seed: cfg.Seed, Attacks: cfg.Attacks,
			DropoutAt: cfg.DropoutAt, DropoutSensors: cfg.DropoutSensors,
		})
		cfg.Attacks, cfg.DropoutAt, cfg.DropoutSensors = nil, 0, nil
	}
	src := &timingSource{inner: inner, capturing: e.stats.missions%e.replayEvery == 0}
	cfg.Source = src
	e.stats.missions++
	ln := &lane{idx: idx, label: job.Label, cfg: cfg, src: src}
	t0 := time.Now()
	ln.span = e.tr.begin("sim.mission", parent, job.Label)
	m, err := sim.NewMission(cfg)
	t1 := time.Now()
	e.tr.add("sim.NewMission", ln.span, job.Label, t0, t1)
	if err != nil {
		return nil, err
	}
	ln.own = t1.Sub(t0)
	e.stats.newMission = append(e.stats.newMission, usOf(ln.own))
	ln.m = m
	return ln, nil
}

// finish completes a lane's mission and, for a captured mission, runs
// the Tick replay.
func (e *steppedEngine) finish(ln *lane) (sim.Result, error) {
	t0 := time.Now()
	res := ln.m.Finish()
	t1 := time.Now()
	e.tr.add("sim.Finish", ln.span, ln.label, t0, t1)
	ln.own += t1.Sub(t0)
	e.stats.finish = append(e.stats.finish, usOf(t1.Sub(t0)))
	e.stats.samples += ln.src.calls
	e.stats.sampleTime += ln.src.spent
	if ln.src.capturing {
		if err := e.replay(ln, res); err != nil {
			return res, err
		}
	}
	e.tr.end(ln.span)
	return res, nil
}

// replay feeds a captured mission's sensor frames into a fresh pipeline
// and mission tracker, exactly as Mission.Step does, timing each Tick. A
// replay that does not reproduce the mission's modeled overhead exactly
// is recorded in mismatches.
func (e *steppedEngine) replay(ln *lane, res sim.Result) error {
	cfg := ln.cfg
	if cfg.Diagnoser != nil || cfg.Detector != nil {
		return errors.New("tick replay needs the default diagnoser and detector: a custom one carries state across missions")
	}
	dt := cfg.DT
	if dt <= 0 {
		dt = simDT
	}
	delta := cfg.Delta
	if delta == (diagnosis.Delta{}) {
		delta = core.DefaultDelta(cfg.Profile)
	}
	tel := telemetry.NewRecorder()
	if cfg.TraceTransitions {
		tel.EnableTransitions()
	}
	start := time.Now()
	fw, err := core.New(core.Config{
		Profile: cfg.Profile, DT: dt, Delta: delta, WindowSec: cfg.WindowSec,
		Telemetry: tel, Shared: cfg.Shared,
	}, cfg.Strategy)
	if err != nil {
		return fmt.Errorf("tick replay: %w", err)
	}
	fw.Init(vehicle.State{})
	tracker := mission.NewTracker(cfg.Plan, acceptRadius)
	var ticks time.Duration
	for _, f := range ln.src.frames {
		wasRecovering := fw.Recovering()
		t0 := time.Now()
		fw.Tick(f.t, f.meas, tracker.Target())
		d := time.Since(t0)
		ticks += d
		if wasRecovering || fw.Recovering() {
			e.stats.tickRecovery = append(e.stats.tickRecovery, usOf(d))
		} else {
			e.stats.tickNominal = append(e.stats.tickNominal, usOf(d))
		}
		b := fw.Believed()
		tracker.Advance(b.X, b.Y, b.Z)
	}
	e.tr.add("core.TickReplay", ln.span, ln.label, start, time.Now())
	e.stats.replayed++
	e.stats.replayTicks += len(ln.src.frames)
	e.stats.replayStep += ln.steps
	e.stats.replaySample += ln.src.spent
	e.stats.ticks += ticks
	defNS, totNS, n := fw.Overhead()
	if defNS != res.DefenseNS || totNS != res.TotalNS || n != res.Ticks {
		e.mismatches = append(e.mismatches, fmt.Sprintf("%s: replay overhead (%d, %d, %d ticks), mission (%d, %d, %d ticks)",
			ln.label, defNS, totNS, n, res.DefenseNS, res.TotalNS, res.Ticks))
	}
	return nil
}
