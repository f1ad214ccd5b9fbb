package ekf

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sensors"
	"repro/internal/vehicle"
)

// This file pins the shared-schedule contract: a filter consuming a
// Schedule must be bit-indistinguishable from a filter running its
// private covariance recursion, for any profile, any fall-off point
// (including never), and any number of concurrent consumers.

// missionMeas synthesizes a deterministic mission-like measurement
// stream seeded per test.
func missionMeas(rng *rand.Rand) sensors.PhysState {
	truth := vehicle.State{
		X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: 10 + rng.NormFloat64(),
		VX: rng.NormFloat64(), VY: rng.NormFloat64(), VZ: rng.NormFloat64(),
		Yaw: rng.NormFloat64() * 0.3,
	}
	return sensors.TruePhysState(truth, [3]float64{}, sensors.BodyField(truth.Yaw))
}

// runPair drives a shared-schedule filter and a private reference
// filter through the same PredictHybrid/Correct sequence, masking GPS
// during [maskFrom, maskTo) to force the shared filter off the
// schedule, and asserts bit-identical states every step and
// bit-identical covariances at the end.
func runPair(t *testing.T, prof vehicle.Profile, sched *Schedule, steps, maskFrom, maskTo int, seed int64) {
	t.Helper()
	const dt = 0.01
	start := vehicle.State{Z: 10}

	shared := New(prof)
	shared.AttachSchedule(sched)
	shared.Init(start)
	private := New(prof)
	private.Init(start)

	all := sensors.NewTypeSet(sensors.AllTypes()...)
	masked := all
	masked.Remove(sensors.GPS)

	rng := rand.New(rand.NewSource(seed))
	u := vehicle.Input{Thrust: 9.0}
	for i := 0; i < steps; i++ {
		meas := missionMeas(rng)
		active := all
		if i >= maskFrom && i < maskTo {
			active = masked
		}
		shared.PredictHybrid(u, &meas, active, dt)
		private.PredictHybrid(u, &meas, active, dt)
		if err := shared.Correct(&meas, active); err != nil {
			t.Fatalf("step %d: shared Correct: %v", i, err)
		}
		if err := private.Correct(&meas, active); err != nil {
			t.Fatalf("step %d: private Correct: %v", i, err)
		}
		bitsEqualState(t, i, shared.State(), private.State())
	}
	gotP, wantP := shared.Covariance(), private.Covariance()
	bitsEqualMat(t, steps, "final covariance", gotP, wantP)
}

// TestScheduleMatchesPrivate: shared vs private bit identity across
// profiles and fall-off points — never, immediately, one cycle in, deep
// into the mission, and straddling a snapshot boundary.
func TestScheduleMatchesPrivate(t *testing.T) {
	for _, id := range []vehicle.ProfileName{vehicle.ArduCopter, vehicle.Pixhawk, vehicle.ArduRover} {
		prof := vehicle.MustProfile(id)
		t.Run(string(id), func(t *testing.T) {
			sched := NewSchedule(prof, 0.01)
			cases := []struct {
				name            string
				steps, from, to int
			}{
				{"nominal", 400, -1, -1},
				{"mask-at-0", 200, 0, 40},
				{"mask-at-1", 200, 1, 40},
				{"mask-at-3", 200, 3, 40},
				{"mask-mid", 300, 150, 190},
				{"mask-at-snapshot-boundary", 200, 64, 100},
				{"mask-past-snapshot", 260, 65, 100},
			}
			for ci, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					runPair(t, prof, sched, tc.steps, tc.from, tc.to, int64(100+ci))
				})
			}
		})
	}
}

// TestScheduleSteadyState: quad schedules reach the bitwise covariance
// fixpoint; missions consuming the steady step still match a private
// filter exactly, including after a post-steady fall-off.
func TestScheduleSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("long fixpoint run")
	}
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	sched := NewSchedule(prof, 0.01)
	runPair(t, prof, sched, 2500, -1, -1, 11)
	if _, steady := sched.Steps(); !steady {
		t.Fatal("quad schedule did not reach the covariance fixpoint within 2500 cycles")
	}
	// Fall off well after steady: the seed covariance is the fixpoint.
	runPair(t, prof, sched, 2500, 2200, 2260, 12)
}

// TestScheduleDetachOnPredict: a pure model Predict (the recovery
// primitive) must detach and stay bit-identical to a private filter.
func TestScheduleDetachOnPredict(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	sched := NewSchedule(prof, 0.01)
	const dt = 0.01
	start := vehicle.State{Z: 10}

	shared := New(prof)
	shared.AttachSchedule(sched)
	shared.Init(start)
	private := New(prof)
	private.Init(start)

	all := sensors.NewTypeSet(sensors.AllTypes()...)
	rng := rand.New(rand.NewSource(21))
	u := vehicle.Input{Thrust: 9.0}
	for i := 0; i < 120; i++ {
		meas := missionMeas(rng)
		if i >= 50 && i < 60 {
			shared.Predict(u, dt)
			private.Predict(u, dt)
		} else {
			shared.PredictHybrid(u, &meas, all, dt)
			private.PredictHybrid(u, &meas, all, dt)
			if err := shared.Correct(&meas, all); err != nil {
				t.Fatalf("step %d: shared Correct: %v", i, err)
			}
			if err := private.Correct(&meas, all); err != nil {
				t.Fatalf("step %d: private Correct: %v", i, err)
			}
		}
		bitsEqualState(t, i, shared.State(), private.State())
	}
	bitsEqualMat(t, 120, "final covariance", shared.Covariance(), private.Covariance())
}

// TestScheduleDetachOnDTChange: a tick at a different dt walks a
// different covariance trajectory and must leave the schedule.
func TestScheduleDetachOnDTChange(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	sched := NewSchedule(prof, 0.01)
	start := vehicle.State{Z: 10}

	shared := New(prof)
	shared.AttachSchedule(sched)
	shared.Init(start)
	private := New(prof)
	private.Init(start)

	all := sensors.NewTypeSet(sensors.AllTypes()...)
	rng := rand.New(rand.NewSource(31))
	u := vehicle.Input{Thrust: 9.0}
	for i := 0; i < 80; i++ {
		dt := 0.01
		if i >= 40 {
			dt = 0.02
		}
		meas := missionMeas(rng)
		shared.PredictHybrid(u, &meas, all, dt)
		private.PredictHybrid(u, &meas, all, dt)
		if err := shared.Correct(&meas, all); err != nil {
			t.Fatalf("step %d: shared Correct: %v", i, err)
		}
		if err := private.Correct(&meas, all); err != nil {
			t.Fatalf("step %d: private Correct: %v", i, err)
		}
		bitsEqualState(t, i, shared.State(), private.State())
		if i >= 40 && shared.onShared() {
			t.Fatalf("step %d: filter still on schedule after dt change", i)
		}
	}
	bitsEqualMat(t, 80, "final covariance", shared.Covariance(), private.Covariance())
}

// TestScheduleCovarianceRead: reading the covariance mid-mission
// detaches (the schedule carries it) and returns exactly the private
// filter's value.
func TestScheduleCovarianceRead(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.ArduRover)
	sched := NewSchedule(prof, 0.01)
	const dt = 0.01
	start := vehicle.State{Z: 0}

	shared := New(prof)
	shared.AttachSchedule(sched)
	shared.Init(start)
	private := New(prof)
	private.Init(start)

	all := sensors.NewTypeSet(sensors.AllTypes()...)
	rng := rand.New(rand.NewSource(41))
	u := vehicle.Input{Thrust: 0.5}
	for i := 0; i < 90; i++ {
		meas := missionMeas(rng)
		shared.PredictHybrid(u, &meas, all, dt)
		private.PredictHybrid(u, &meas, all, dt)
		if err := shared.Correct(&meas, all); err != nil {
			t.Fatalf("shared Correct: %v", err)
		}
		if err := private.Correct(&meas, all); err != nil {
			t.Fatalf("private Correct: %v", err)
		}
		if i == 70 {
			bitsEqualMat(t, i, "mid-mission covariance", shared.Covariance(), private.Covariance())
			if shared.onShared() {
				t.Fatal("covariance read must detach")
			}
		}
		bitsEqualState(t, i, shared.State(), private.State())
	}
	bitsEqualMat(t, 90, "final covariance", shared.Covariance(), private.Covariance())
}

// TestScheduleConcurrentConsumers: many filters share one schedule
// concurrently, each falling off at a different point; every one must
// match its private reference. Run with -race this also proves the
// lock-free read path is data-race free against lazy extension.
func TestScheduleConcurrentConsumers(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	sched := NewSchedule(prof, 0.01)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			maskFrom, maskTo := -1, -1
			if g%2 == 1 {
				maskFrom, maskTo = 30*g, 30*g+25
			}
			// Subtests can't cross goroutines; assert via t.Errorf through
			// a local adapter instead.
			runPairErr(t, prof, sched, 300, maskFrom, maskTo, int64(g))
		}(g)
	}
	wg.Wait()
}

// runPairErr is runPair with non-fatal assertions (safe off the test
// goroutine).
func runPairErr(t *testing.T, prof vehicle.Profile, sched *Schedule, steps, maskFrom, maskTo int, seed int64) {
	const dt = 0.01
	start := vehicle.State{Z: 10}

	shared := New(prof)
	shared.AttachSchedule(sched)
	shared.Init(start)
	private := New(prof)
	private.Init(start)

	all := sensors.NewTypeSet(sensors.AllTypes()...)
	masked := all
	masked.Remove(sensors.GPS)

	rng := rand.New(rand.NewSource(seed))
	u := vehicle.Input{Thrust: 9.0}
	for i := 0; i < steps; i++ {
		meas := missionMeas(rng)
		active := all
		if i >= maskFrom && i < maskTo {
			active = masked
		}
		shared.PredictHybrid(u, &meas, active, dt)
		private.PredictHybrid(u, &meas, active, dt)
		if err := shared.Correct(&meas, active); err != nil {
			t.Errorf("seed %d step %d: shared Correct: %v", seed, i, err)
			return
		}
		if err := private.Correct(&meas, active); err != nil {
			t.Errorf("seed %d step %d: private Correct: %v", seed, i, err)
			return
		}
		gv, wv := shared.State().Vec(), private.State().Vec()
		for c := range wv {
			if math.Float64bits(gv[c]) != math.Float64bits(wv[c]) {
				t.Errorf("seed %d step %d: state diverges at component %d", seed, i, c)
				return
			}
		}
	}
	gotP, wantP := shared.Covariance(), private.Covariance()
	for i := range wantP.Data {
		if math.Float64bits(gotP.Data[i]) != math.Float64bits(wantP.Data[i]) {
			t.Errorf("seed %d: final covariance diverges at element %d", seed, i)
			return
		}
	}
}

// TestScheduleStepAllocFree: the steady-state consume path (schedule
// already extended) must not allocate.
func TestScheduleStepAllocFree(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	sched := NewSchedule(prof, 0.01)
	const dt = 0.01
	f := New(prof)
	f.AttachSchedule(sched)
	f.Init(vehicle.State{Z: 10})
	all := sensors.NewTypeSet(sensors.AllTypes()...)
	rng := rand.New(rand.NewSource(51))
	// Pre-extend the schedule past the measurement window.
	warm := New(prof)
	warm.AttachSchedule(sched)
	warm.Init(vehicle.State{Z: 10})
	for i := 0; i < 300; i++ {
		meas := missionMeas(rng)
		warm.PredictHybrid(vehicle.Input{Thrust: 9}, &meas, all, dt)
		if err := warm.Correct(&meas, all); err != nil {
			t.Fatal(err)
		}
	}
	meas := missionMeas(rng)
	u := vehicle.Input{Thrust: 9.0}
	n := testing.AllocsPerRun(200, func() {
		f.PredictHybrid(u, &meas, all, dt)
		if err := f.Correct(&meas, all); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("shared Predict/Correct cycle allocates %v per run, want 0", n)
	}
	if !f.onShared() {
		t.Fatal("filter unexpectedly detached during alloc measurement")
	}
}
