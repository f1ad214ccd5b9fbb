package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/mission"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// The suites' vehicle-profile cycles: a mixed-profile sweep, and a
// single profile — the shape of a campaign shard.
var (
	mixed  = []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover}
	copter = []vehicle.ProfileName{vehicle.ArduCopter}
)

// suite builds a deterministic job list cycling through the given
// profiles — short real missions, attacked and clean, every draw derived
// from one master seed — fresh stateful collaborators per call so the
// same suite can be executed independently by every engine.
func suite(t testing.TB, n int, profiles []vehicle.ProfileName) []Job {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	jobs := make([]Job, n)
	for i := range jobs {
		p := vehicle.MustProfile(profiles[i%len(profiles)])
		cfg := sim.Config{
			Profile:   p,
			Plan:      mission.NewStraight(5, 10),
			Strategy:  core.StrategyDeLorean,
			Delta:     core.DefaultDelta(p),
			WindowSec: 5,
			WindMean:  rng.Float64() * 2,
			WindGust:  0.3,
			WindDir:   rng.Float64() * 6.28,
			Seed:      rng.Int63(),
			MaxSec:    4,
		}
		if i%3 == 0 {
			targets := attack.RandomTargets(rng, 1)
			sda := attack.New(rng, attack.DefaultParams(), targets, 1.0, 2.5)
			cfg.Attacks = attack.NewSchedule(sda)
		} else {
			// Keep the master rng draw count independent of which jobs
			// carry attacks.
			_ = attack.RandomTargets(rng, 1)
			_ = attack.New(rng, attack.DefaultParams(), 0, 1.0, 2.5)
		}
		jobs[i] = Job{Label: fmt.Sprintf("suite/%d", i), Cfg: cfg}
	}
	return jobs
}

// reportBytes renders a collector's telemetry report.
func reportBytes(t *testing.T, col *telemetry.Collector) []byte {
	t.Helper()
	rep, err := col.Report(telemetry.Meta{Generator: "engine-test"})
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("write report: %v", err)
	}
	return buf.Bytes()
}

// runBare executes a fresh suite serially on sim.RunContext — no
// executor and no shared caches, so every mission builds its own setup —
// and renders its telemetry report: the reference every engine must
// match.
func runBare(t *testing.T, n int, profiles []vehicle.ProfileName) ([]sim.Result, []byte) {
	t.Helper()
	col := telemetry.NewCollector()
	col.Begin("equiv")
	jobs := suite(t, n, profiles)
	res := make([]sim.Result, len(jobs))
	for i := range jobs {
		r, err := sim.RunContext(context.Background(), jobs[i].Cfg)
		if err != nil {
			t.Fatalf("bare %s: %v", jobs[i].Label, err)
		}
		res[i] = r
		col.Add(r.Telemetry)
	}
	return res, reportBytes(t, col)
}

// runOn executes a fresh suite on the engine, checks that every mission
// ran on the shared caches, and renders its telemetry report.
func runOn(t *testing.T, eng Engine, n int, profiles []vehicle.ProfileName, opt Options) ([]sim.Result, []byte) {
	t.Helper()
	col := telemetry.NewCollector()
	col.Begin("equiv")
	opt.Telemetry = col
	jobs := suite(t, n, profiles)
	res, err := eng.Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatalf("%s: %v", eng.Name(), err)
	}
	for i := range jobs {
		if jobs[i].Cfg.Shared == nil {
			t.Errorf("%s: job %d ran without shared caches", eng.Name(), i)
		}
	}
	return res, reportBytes(t, col)
}

// testEngines are the engines under test: the stateless runner engine
// and a fresh long-lived 4-shard pool. The cleanup closes the pool after
// the test.
func testEngines(t *testing.T) []Engine {
	t.Helper()
	p := NewPool(4, 64)
	t.Cleanup(p.Close)
	return []Engine{Runner(), p}
}

// TestEnginesByteIdentical is the seam's headline contract: for the same
// pre-drawn job list, every engine produces deeply equal results and a
// byte-identical telemetry report, at worker counts 1 and 4, and both
// equal a serial sim.RunContext loop without the shared caches. It runs
// the mixed-profile suite and a single-profile copter suite, the shape of
// a campaign shard, whose subtests carry a "copter/" prefix.
func TestEnginesByteIdentical(t *testing.T) {
	const n = 10
	suites := []struct {
		prefix   string
		profiles []vehicle.ProfileName
	}{
		{"", mixed},
		{"copter/", copter},
	}
	engines := testEngines(t)
	for _, s := range suites {
		wantRes, wantRep := runBare(t, n, s.profiles)
		for _, eng := range engines {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("%s%s/workers=%d", s.prefix, eng.Name(), workers)
				t.Run(name, func(t *testing.T) {
					gotRes, gotRep := runOn(t, eng, n, s.profiles, Options{Workers: workers})
					if len(gotRes) != len(wantRes) {
						t.Fatalf("results = %d, want %d", len(gotRes), len(wantRes))
					}
					for i := range wantRes {
						if !reflect.DeepEqual(gotRes[i], wantRes[i]) {
							t.Errorf("job %d: %s result diverged from the bare serial reference", i, eng.Name())
						}
					}
					if !bytes.Equal(gotRep, wantRep) {
						t.Errorf("%s telemetry report differs from the bare serial reference", name)
					}
				})
			}
		}
	}
}

// TestEnginesLowestIndexedError pins the shared failure contract: every
// engine reports the lowest-indexed failure with the job's label, and
// surviving jobs still carry valid results.
func TestEnginesLowestIndexedError(t *testing.T) {
	wantRes, _ := runBare(t, 6, mixed)
	for _, eng := range testEngines(t) {
		t.Run(eng.Name(), func(t *testing.T) {
			jobs := suite(t, 6, mixed)
			jobs[2].Label = "suite/broken-a"
			jobs[2].Cfg.DT = -1 // rejected by sim.Config.Validate
			jobs[4].Label = "suite/broken-b"
			jobs[4].Cfg.DT = -1
			res, err := eng.Run(context.Background(), jobs, Options{Workers: 2})
			if err == nil {
				t.Fatal("broken job did not surface an error")
			}
			for _, want := range []string{"job 2", "suite/broken-a"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
			for _, i := range []int{0, 1, 3, 5} {
				if !reflect.DeepEqual(res[i], wantRes[i]) {
					t.Errorf("surviving job %d diverged from the bare serial reference", i)
				}
			}
		})
	}
}

// panicSource is the simulator's own sensor source with a defect
// injected: Sample panics once mission time reaches at.
type panicSource struct {
	*sim.SimSource
	at float64
}

func (s panicSource) Sample(tick sensors.Tick) (sensors.Reading, error) {
	if tick.T >= s.at {
		panic(fmt.Sprintf("injected sensor fault at t=%.2f", tick.T))
	}
	return s.SimSource.Sample(tick)
}

// TestEnginesIsolatePanickingMission pins per-mission panic isolation on
// the shape of a campaign shard: in a single-profile job list one
// mission's sensor source panics mid-flight. Every engine reports that
// job's index and label, and every other job's result equals a clean
// reference run's, at worker counts 1 and 2.
func TestEnginesIsolatePanickingMission(t *testing.T) {
	const n, bad = 6, 3
	want, err := Runner().Run(context.Background(), suite(t, n, copter), Options{Workers: 1})
	if err != nil {
		t.Fatalf("clean reference: %v", err)
	}
	for _, eng := range testEngines(t) {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", eng.Name(), workers), func(t *testing.T) {
				jobs := suite(t, n, copter)
				cfg := &jobs[bad].Cfg
				cfg.Source = panicSource{
					SimSource: sim.NewSimSource(sim.SourceConfig{Profile: cfg.Profile, Seed: cfg.Seed, Attacks: cfg.Attacks}),
					at:        1,
				}
				cfg.Attacks = nil
				jobs[bad].Label = "suite/panics"
				res, err := eng.Run(context.Background(), jobs, Options{Workers: workers})
				if err == nil {
					t.Fatal("panicking mission did not surface an error")
				}
				for _, w := range []string{fmt.Sprintf("job %d", bad), "suite/panics", "injected sensor fault"} {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("error %q missing %q", err, w)
					}
				}
				for i := range want {
					if i != bad && !reflect.DeepEqual(res[i], want[i]) {
						t.Errorf("job %d diverged from the clean reference run", i)
					}
				}
			})
		}
	}
}

// TestEnginesCancelledContext: a pre-cancelled context returns a bare
// ctx.Err() from every engine.
func TestEnginesCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range testEngines(t) {
		t.Run(eng.Name(), func(t *testing.T) {
			_, err := eng.Run(ctx, suite(t, 4, mixed), Options{Workers: 2})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if err.Error() != context.Canceled.Error() {
				t.Errorf("cancellation error is wrapped: %q", err)
			}
		})
	}
}

// TestEnginesEmptyJobList: an empty job list returns no results and a
// bare ctx.Err() from every engine — nil on a live context.
func TestEnginesEmptyJobList(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range testEngines(t) {
		t.Run(eng.Name(), func(t *testing.T) {
			for _, c := range []struct {
				ctx  context.Context
				want error
			}{{context.Background(), nil}, {cancelled, context.Canceled}} {
				res, err := eng.Run(c.ctx, nil, Options{Workers: 2})
				if len(res) != 0 || err != c.want {
					t.Errorf("Run(nil) = %d results, %v; want none, %v", len(res), err, c.want)
				}
			}
		})
	}
}

// TestPoolStreamSubmissionOrder pins the streaming release: Ready yields
// exactly 0..n-1 in order regardless of completion interleaving.
func TestPoolStreamSubmissionOrder(t *testing.T) {
	p := NewPool(4, 64)
	defer p.Close()
	st, err := p.Submit(context.Background(), suite(t, 8, mixed))
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := range st.Ready() {
		got = append(got, i)
		if st.Err(i) != nil {
			t.Errorf("job %d failed: %v", i, st.Err(i))
		}
		if st.Result(i).Ticks == 0 {
			t.Errorf("job %d: empty result", i)
		}
	}
	for i, idx := range got {
		if i != idx {
			t.Fatalf("stream released %v, want 0..7 in order", got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("stream released %d indices, want 8", len(got))
	}
}

// TestPoolSubmitRejections: Submit returns the pool's admission errors
// unchanged so dispatchers can shed load on them.
func TestPoolSubmitRejections(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()
	if _, err := p.Submit(context.Background(), suite(t, 8, mixed)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("oversized submit: err = %v, want ErrQueueFull", err)
	}
	p.BeginDrain()
	if _, err := p.Submit(context.Background(), suite(t, 1, mixed)); !errors.Is(err, ErrDraining) {
		t.Errorf("draining submit: err = %v, want ErrDraining", err)
	}
}

// TestAttachSharedIdempotent: attaching twice or over a pre-attached
// config is a no-op, and configs keep their caches per (profile, dt).
func TestAttachSharedIdempotent(t *testing.T) {
	jobs := suite(t, 4, mixed)
	attachShared(jobs)
	first := make([]*core.Shared, len(jobs))
	for i := range jobs {
		if jobs[i].Cfg.Shared == nil {
			t.Fatalf("job %d: no shared caches attached", i)
		}
		first[i] = jobs[i].Cfg.Shared
	}
	attachShared(jobs)
	for i := range jobs {
		if jobs[i].Cfg.Shared != first[i] {
			t.Errorf("job %d: re-attach replaced the cache", i)
		}
	}
}
