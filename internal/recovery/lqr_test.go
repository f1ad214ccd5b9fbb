package recovery

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/mission"
	"repro/internal/vehicle"
)

func TestLQRQuadReachesWaypoint(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	dt := 0.01
	l, err := NewLQR(prof, dt)
	if err != nil {
		t.Fatalf("NewLQR: %v", err)
	}
	s := vehicle.State{Z: 10}
	target := mission.Waypoint{X: 15, Y: -5, Z: 12}
	for i := 0; i < 6000; i++ {
		u := l.Update(&s, target)
		s = prof.Quad.Step(s, u, vehicle.Wind{}, dt)
	}
	if d := s.HorizontalDistanceTo(target.X, target.Y); d > 1.5 {
		t.Errorf("quad %vm from waypoint after 60s", d)
	}
	if math.Abs(s.Z-target.Z) > 1.5 {
		t.Errorf("quad altitude %v, want %v", s.Z, target.Z)
	}
}

func TestLQRQuadStabilizesFromDisturbance(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	dt := 0.01
	l, err := NewLQR(prof, dt)
	if err != nil {
		t.Fatalf("NewLQR: %v", err)
	}
	// Badly tilted, falling, and offset.
	s := vehicle.State{X: 5, Z: 20, VZ: -3, Roll: 0.4, Pitch: -0.3, WRoll: 1}
	target := mission.Waypoint{X: 0, Y: 0, Z: 20}
	for i := 0; i < 4000; i++ {
		u := l.Update(&s, target)
		s = prof.Quad.Step(s, u, vehicle.Wind{}, dt)
	}
	if math.Abs(s.Roll) > 0.05 || math.Abs(s.Pitch) > 0.05 {
		t.Errorf("attitude not stabilized: roll %v pitch %v", s.Roll, s.Pitch)
	}
	if d := s.HorizontalDistanceTo(0, 0); d > 1.5 {
		t.Errorf("position not recovered: %vm off", d)
	}
}

func TestLQRQuadThrustBounded(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	l, err := NewLQR(prof, 0.01)
	if err != nil {
		t.Fatalf("NewLQR: %v", err)
	}
	u := l.Update(&vehicle.State{Z: 0}, mission.Waypoint{Z: 500})
	if u.Thrust > prof.MaxThrust+1e-9 || u.Thrust < 0 {
		t.Errorf("thrust %v outside [0, %v]", u.Thrust, prof.MaxThrust)
	}
}

func TestLQRRoverReachesWaypoint(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.AionR1)
	dt := 0.01
	l, err := NewLQR(prof, dt)
	if err != nil {
		t.Fatalf("NewLQR: %v", err)
	}
	s := vehicle.State{VX: 0.5}
	target := mission.Waypoint{X: 20, Y: 10}
	for i := 0; i < 10000; i++ {
		u := l.Update(&s, target)
		s = prof.Rover.Step(s, u, vehicle.Wind{}, dt)
		if s.HorizontalDistanceTo(target.X, target.Y) < 1.0 {
			return
		}
	}
	t.Errorf("rover never reached waypoint; final (%v, %v)", s.X, s.Y)
}

func TestLQRRoverSteeringBounded(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.ArduRover)
	l, err := NewLQR(prof, 0.01)
	if err != nil {
		t.Fatalf("NewLQR: %v", err)
	}
	u := l.Update(&vehicle.State{VX: 2}, mission.Waypoint{X: -50, Y: 50})
	if math.Abs(u.MYaw) > prof.Rover.MaxSteer+1e-9 {
		t.Errorf("steering %v exceeds %v", u.MYaw, prof.Rover.MaxSteer)
	}
}

func TestLQRResetClearsRoverGain(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.AionR1)
	l, err := NewLQR(prof, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	l.Update(&vehicle.State{VX: 1}, mission.Waypoint{X: 5})
	if !l.hasRover {
		t.Fatal("rover gain not synthesized on first update")
	}
	l.Reset()
	if l.hasRover {
		t.Error("Reset did not clear rover gain")
	}
}

// refUpdate is Update's control law on the allocating mat kernels, as it
// stood before the gains became arrays: the error vector, then
// mat.MulVec on the controller's current gain.
func refUpdate(l *LQR, est *vehicle.State, target mission.Waypoint) vehicle.Input {
	if l.profile.IsQuad() {
		k := mat.New(4, 12)
		for i := range l.kQuad {
			copy(k.Data[i*12:], l.kQuad[i][:])
		}
		err := mat.Vec(est.Vec())
		err[0] -= target.X
		err[1] -= target.Y
		err[2] -= target.Z
		for i := 6; i <= 8; i++ {
			err[i] = vehicle.WrapAngle(err[i])
		}
		for i := 0; i < 3; i++ {
			err[i] = vehicle.Clamp(err[i], -4, 4)
		}
		du := k.MulVec(err)
		q := l.profile.Quad
		u := vehicle.Input{
			Thrust: q.HoverThrust() - du[0],
			MRoll:  -du[1],
			MPitch: -du[2],
			MYaw:   -du[3],
		}
		u.Thrust = vehicle.Clamp(u.Thrust, 0.1*q.HoverThrust(), l.profile.MaxThrust)
		mmax := 4 * q.IX * 20
		u.MRoll = vehicle.Clamp(u.MRoll, -mmax, mmax)
		u.MPitch = vehicle.Clamp(u.MPitch, -mmax, mmax)
		u.MYaw = vehicle.Clamp(u.MYaw, -mmax, mmax)
		return u
	}
	k := mat.New(2, 4)
	for i := range l.kRover {
		copy(k.Data[i*4:], l.kRover[i][:])
	}
	v := est.Speed2D()
	dx, dy := target.X-est.X, target.Y-est.Y
	dist := math.Hypot(dx, dy)
	headingRef := math.Atan2(dy, dx)
	speedRef := l.profile.CruiseSpeed
	if dist < 4 {
		speedRef *= dist / 4
	}
	du := k.MulVec(mat.Vec{
		vehicle.Clamp(-dx, -8, 8),
		vehicle.Clamp(-dy, -8, 8),
		vehicle.WrapAngle(est.Yaw - headingRef),
		v - speedRef,
	})
	return vehicle.Input{
		Thrust: vehicle.Clamp(-du[0], -l.profile.MaxThrust, l.profile.MaxThrust),
		MYaw:   vehicle.Clamp(-du[1], -l.profile.Rover.MaxSteer, l.profile.Rover.MaxSteer),
	}
}

// TestLQRUpdateMatchesReference: Update's action matches refUpdate bit for
// bit on the gain Update flew with, for a quad and a rover, over random
// states and targets (rover headings and speeds that refresh the gain on
// some calls and not on others).
func TestLQRUpdateMatchesReference(t *testing.T) {
	bits := func(u vehicle.Input) [4]uint64 {
		return [4]uint64{
			math.Float64bits(u.Thrust), math.Float64bits(u.MRoll),
			math.Float64bits(u.MPitch), math.Float64bits(u.MYaw),
		}
	}
	for _, name := range []vehicle.ProfileName{vehicle.ArduCopter, vehicle.ArduRover} {
		prof := vehicle.MustProfile(name)
		l, err := NewLQR(prof, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(29))
		for n := 0; n < 2000; n++ {
			s := vehicle.State{
				X: 20 * rng.NormFloat64(), Y: 20 * rng.NormFloat64(), Z: 10 + 5*rng.NormFloat64(),
				VX: 2 * rng.NormFloat64(), VY: 2 * rng.NormFloat64(), VZ: rng.NormFloat64(),
				Roll: 0.3 * rng.NormFloat64(), Pitch: 0.3 * rng.NormFloat64(), Yaw: 4 * rng.NormFloat64(),
				WRoll: rng.NormFloat64(), WPitch: rng.NormFloat64(), WYaw: rng.NormFloat64(),
			}
			target := mission.Waypoint{X: 20 * rng.NormFloat64(), Y: 20 * rng.NormFloat64(), Z: 10 + 5*rng.NormFloat64()}
			got := l.Update(&s, target)
			if want := refUpdate(l, &s, target); bits(got) != bits(want) {
				t.Fatalf("%s case %d: Update = %+v, reference %+v", name, n, got, want)
			}
		}
	}
}

func TestLQRAllQuadProfilesSynthesize(t *testing.T) {
	for _, name := range vehicle.AllRVs() {
		prof := vehicle.MustProfile(name)
		if _, err := NewLQR(prof, 0.01); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
