package ekf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/sensors"
	"repro/internal/vehicle"
)

func pixhawk() vehicle.Profile { return vehicle.MustProfile(vehicle.Pixhawk) }

func allSensors() sensors.TypeSet { return sensors.NewTypeSet(sensors.AllTypes()...) }

func TestPredictMatchesModel(t *testing.T) {
	p := pixhawk()
	f := New(p)
	s0 := vehicle.State{Z: 10, VX: 1}
	f.Init(s0)
	u := vehicle.Input{Thrust: p.Quad.HoverThrust()}
	f.Predict(u, 0.01)
	want := p.Quad.Step(s0, u, vehicle.Wind{}, 0.01)
	if got := f.State(); math.Abs(got.Z-want.Z) > 1e-12 || math.Abs(got.X-want.X) > 1e-12 {
		t.Errorf("Predict = %+v, want %+v", got, want)
	}
}

func TestCorrectPullsTowardMeasurement(t *testing.T) {
	p := pixhawk()
	f := New(p)
	f.Init(vehicle.State{Z: 10})
	var meas sensors.PhysState
	meas[sensors.SX] = 2
	meas[sensors.SZ] = 10
	meas[sensors.SBaroAlt] = 10
	for i := 0; i < 50; i++ {
		f.Predict(vehicle.Input{Thrust: p.Quad.HoverThrust()}, 0.01)
		if err := f.Correct(&meas, sensors.NewTypeSet(sensors.GPS, sensors.Baro)); err != nil {
			t.Fatalf("Correct: %v", err)
		}
	}
	if got := f.State().X; got < 1 {
		t.Errorf("estimate x = %v, want pulled toward 2", got)
	}
}

func TestCorrectMaskedSensorIgnored(t *testing.T) {
	p := pixhawk()
	f := New(p)
	f.Init(vehicle.State{Z: 10})
	var meas sensors.PhysState
	meas[sensors.SX] = 50 // spoofed GPS
	meas[sensors.SZ] = 10
	before := f.State()
	if err := f.Correct(&meas, sensors.NewTypeSet(sensors.Baro)); err != nil {
		t.Fatalf("Correct: %v", err)
	}
	if got := f.State().X; math.Abs(got-before.X) > 0.2 {
		t.Errorf("masked GPS still moved x estimate: %v", got)
	}
}

func TestCorrectEmptyMaskIsNoop(t *testing.T) {
	p := pixhawk()
	f := New(p)
	f.Init(vehicle.State{Z: 5, VX: 2})
	before := f.State()
	if err := f.Correct(&sensors.PhysState{}, sensors.NewTypeSet()); err != nil {
		t.Fatalf("Correct: %v", err)
	}
	if f.State() != before {
		t.Error("empty-mask correction changed state")
	}
}

func TestTrackingClosedLoop(t *testing.T) {
	// The filter must track a hovering drone under noisy measurements
	// using strapdown prediction + GPS/baro/mag corrections.
	p := pixhawk()
	f := New(p)
	truth := vehicle.State{Z: 10}
	f.Init(truth)
	rng := rand.New(rand.NewSource(42))
	suite := sensors.NewSuite(p, rng)
	u := vehicle.Input{Thrust: p.Quad.HoverThrust()}
	dt := 0.01
	for i := 0; i < 500; i++ {
		tNow := float64(i) * dt
		d := p.Quad.Derivative(truth, u, vehicle.Wind{})
		accel := [3]float64{d.VX, d.VY, d.VZ}
		truth = p.Quad.Step(truth, u, vehicle.Wind{}, dt)
		meas := *suite.Sample(tNow, dt, &truth, accel, &sensors.Bias{})
		f.PredictHybrid(u, &meas, allSensors(), dt)
		if err := f.Correct(&meas, allSensors()); err != nil {
			t.Fatalf("Correct: %v", err)
		}
	}
	est := f.State()
	if math.Abs(est.Z-truth.Z) > 0.5 {
		t.Errorf("z estimate %v vs truth %v", est.Z, truth.Z)
	}
	if math.Abs(est.X-truth.X) > 0.5 {
		t.Errorf("x estimate %v vs truth %v", est.X, truth.X)
	}
}

func TestGyroBiasCorruptsFusedAttitude(t *testing.T) {
	// A gyroscope rate bias must drag the fused attitude — the attack
	// propagation path the paper's gyro SDAs rely on.
	p := pixhawk()
	f := New(p)
	f.Init(vehicle.State{Z: 10})
	var meas sensors.PhysState
	meas[sensors.SWRoll] = 0.5 // biased rate, truth is hover
	meas[sensors.SZ] = 10
	meas[sensors.SBaroAlt] = 10
	meas[sensors.SMagX], meas[sensors.SMagY], meas[sensors.SMagZ] = sensors.EarthField[0], sensors.EarthField[1], sensors.EarthField[2]
	u := vehicle.Input{Thrust: p.Quad.HoverThrust()}
	for i := 0; i < 200; i++ {
		// The onboard attitude estimator integrates the same biased rates,
		// so the gyro-derived angle channel grows with the bias too.
		meas[sensors.SRoll] = vehicle.WrapAngle(meas[sensors.SRoll] + 0.5*0.01)
		f.PredictHybrid(u, &meas, allSensors(), 0.01)
		if err := f.Correct(&meas, allSensors()); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.State().Roll; got < 0.5 {
		t.Errorf("fused roll = %v, want dragged by rate bias", got)
	}
}

func TestAccelBiasCorruptsFusedVelocity(t *testing.T) {
	p := pixhawk()
	f := New(p)
	f.Init(vehicle.State{Z: 10})
	var meas sensors.PhysState
	meas[sensors.SAX] = 3 // biased accel, truth is hover
	meas[sensors.SZ] = 10
	meas[sensors.SBaroAlt] = 10
	u := vehicle.Input{Thrust: p.Quad.HoverThrust()}
	// GPS masked so the accel drift is not corrected away instantly.
	active := sensors.NewTypeSet(sensors.Gyro, sensors.Accel, sensors.Baro)
	for i := 0; i < 100; i++ {
		f.PredictHybrid(u, &meas, active, 0.01)
		if err := f.Correct(&meas, active); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.State().VX; got < 1 {
		t.Errorf("fused vx = %v, want dragged by accel bias", got)
	}
}

func TestMaskedGyroFallsBackToModel(t *testing.T) {
	// With the gyro masked, a huge rate bias in the measurement must not
	// reach the attitude estimate.
	p := pixhawk()
	f := New(p)
	f.Init(vehicle.State{Z: 10})
	var meas sensors.PhysState
	meas[sensors.SWRoll] = 9
	u := vehicle.Input{Thrust: p.Quad.HoverThrust()}
	active := sensors.NewTypeSet(sensors.Accel, sensors.Baro)
	for i := 0; i < 100; i++ {
		f.PredictHybrid(u, &meas, active, 0.01)
	}
	if got := math.Abs(f.State().Roll); got > 0.01 {
		t.Errorf("masked gyro still corrupted roll: %v", got)
	}
}

func TestMagYawInversion(t *testing.T) {
	for _, yaw := range []float64{0, 0.5, -1.2, math.Pi - 0.1} {
		field := sensors.BodyField(yaw)
		var meas sensors.PhysState
		meas[sensors.SMagX], meas[sensors.SMagY], meas[sensors.SMagZ] = field[0], field[1], field[2]
		if got := MagYaw(&meas); math.Abs(vehicle.WrapAngle(got-yaw)) > 1e-9 {
			t.Errorf("MagYaw(%v) = %v", yaw, got)
		}
	}
}

func TestCovarianceStaysPSD(t *testing.T) {
	p := pixhawk()
	f := New(p)
	f.Init(vehicle.State{Z: 10})
	u := vehicle.Input{Thrust: p.Quad.HoverThrust()}
	var meas sensors.PhysState
	meas[sensors.SZ] = 10
	meas[sensors.SBaroAlt] = 10
	for i := 0; i < 200; i++ {
		f.PredictHybrid(u, &meas, allSensors(), 0.01)
		if err := f.Correct(&meas, allSensors()); err != nil {
			t.Fatalf("Correct: %v", err)
		}
		if !mat.IsPSD(f.Covariance(), 1e-9) {
			t.Fatalf("covariance not PSD at tick %d", i)
		}
	}
}

func TestMaskingGrowsUncertainty(t *testing.T) {
	p := pixhawk()
	f := New(p)
	f.Init(vehicle.State{Z: 10})
	u := vehicle.Input{Thrust: p.Quad.HoverThrust()}
	prev := f.Covariance().At(0, 0)
	for i := 0; i < 100; i++ {
		f.Predict(u, 0.01)
		cur := f.Covariance().At(0, 0)
		if cur < prev-1e-12 {
			t.Fatalf("masked covariance shrank at tick %d: %v < %v", i, cur, prev)
		}
		prev = cur
	}
}

func TestRollForward(t *testing.T) {
	p := pixhawk()
	step := QuadStep(p.Quad)
	s := vehicle.State{Z: 10}
	u := vehicle.Input{Thrust: p.Quad.HoverThrust()}
	inputs := make([]vehicle.Input, 100)
	for i := range inputs {
		inputs[i] = u
	}
	got := RollForward(step, s, inputs, 0.01)
	if math.Abs(got.Z-10) > 1e-9 {
		t.Errorf("hover roll-forward drifted: z = %v", got.Z)
	}
	want := s
	for range inputs {
		step(&want, &want, u, 0.01)
	}
	if got != want {
		t.Errorf("RollForward = %+v, want %+v", got, want)
	}
}

func TestRoverFilterTracks(t *testing.T) {
	p := vehicle.MustProfile(vehicle.AionR1)
	f := New(p)
	truth := vehicle.State{VX: 1}
	f.Init(truth)
	rng := rand.New(rand.NewSource(7))
	suite := sensors.NewSuite(p, rng)
	u := vehicle.Input{Thrust: 0.5}
	dt := 0.01
	for i := 0; i < 300; i++ {
		d := p.Rover.Derivative(truth, u, vehicle.Wind{})
		accel := [3]float64{d.VX, d.VY, 0}
		truth = p.Rover.Step(truth, u, vehicle.Wind{}, dt)
		meas := *suite.Sample(float64(i)*dt, dt, &truth, accel, &sensors.Bias{})
		f.PredictHybrid(u, &meas, allSensors(), dt)
		if err := f.Correct(&meas, allSensors()); err != nil {
			t.Fatalf("Correct: %v", err)
		}
	}
	if d := math.Abs(f.State().X - truth.X); d > 1 {
		t.Errorf("rover x estimate off by %v", d)
	}
}

func TestSetState(t *testing.T) {
	f := New(pixhawk())
	want := vehicle.State{X: 7, Z: 3}
	f.SetState(want)
	if f.State() != want {
		t.Error("SetState did not take")
	}
}

// Property: Predict is deterministic — same state, same input, same
// result.
func TestPropertyPredictDeterministic(t *testing.T) {
	p := pixhawk()
	f := func(z, vx, thrust float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) || math.IsNaN(vx) || math.IsNaN(thrust) {
			return true
		}
		s := vehicle.State{Z: math.Mod(math.Abs(z), 100), VX: math.Mod(vx, 10)}
		u := vehicle.Input{Thrust: math.Mod(math.Abs(thrust), p.MaxThrust)}
		a := New(p)
		a.Init(s)
		a.Predict(u, 0.01)
		b := New(p)
		b.Init(s)
		b.Predict(u, 0.01)
		return a.State() == b.State()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
