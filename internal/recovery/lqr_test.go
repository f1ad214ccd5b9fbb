package recovery

import (
	"math"
	"testing"

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
		u := l.Update(&s, target, dt)
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
		u := l.Update(&s, target, dt)
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
	u := l.Update(&vehicle.State{Z: 0}, mission.Waypoint{Z: 500}, 0.01)
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
		u := l.Update(&s, target, dt)
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
	u := l.Update(&vehicle.State{VX: 2}, mission.Waypoint{X: -50, Y: 50}, 0.01)
	if math.Abs(u.MYaw) > prof.Rover.MaxSteer+1e-9 {
		t.Errorf("steering %v exceeds %v", u.MYaw, prof.Rover.MaxSteer)
	}
}

func TestLQRName(t *testing.T) {
	l, err := NewLQR(vehicle.MustProfile(vehicle.Pixhawk), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if l.Name() != "LQR" {
		t.Errorf("Name = %q", l.Name())
	}
}

func TestLQRResetClearsRoverGain(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.AionR1)
	l, err := NewLQR(prof, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	l.Update(&vehicle.State{VX: 1}, mission.Waypoint{X: 5}, 0.01)
	if l.kRover == nil {
		t.Fatal("rover gain not synthesized on first update")
	}
	l.Reset()
	if l.kRover != nil {
		t.Error("Reset did not clear rover gain")
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
