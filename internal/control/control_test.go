package control

import (
	"math"
	"testing"

	"repro/internal/mission"
	"repro/internal/vehicle"
)

func TestPIDProportional(t *testing.T) {
	c := PID{KP: 2}
	if got := c.Update(3, 0.01); got != 6 {
		t.Errorf("P output = %v, want 6", got)
	}
}

func TestPIDIntegralAccumulates(t *testing.T) {
	c := PID{KI: 1}
	c.Update(1, 1)
	got := c.Update(1, 1)
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("I output = %v, want 2", got)
	}
}

func TestPIDIntegralAntiWindup(t *testing.T) {
	c := PID{KI: 1, IMax: 0.5}
	for i := 0; i < 100; i++ {
		c.Update(10, 1)
	}
	if got := c.Update(0, 1); got > 0.5+1e-12 {
		t.Errorf("windup not clamped: %v", got)
	}
}

func TestPIDDerivative(t *testing.T) {
	c := PID{KD: 1}
	c.Update(0, 0.1)
	got := c.Update(1, 0.1) // de/dt = 10
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("D output = %v, want 10", got)
	}
}

func TestPIDFirstSampleNoDerivativeKick(t *testing.T) {
	c := PID{KD: 100}
	if got := c.Update(5, 0.1); got != 0 {
		t.Errorf("first-sample derivative kick: %v", got)
	}
}

func TestPIDOutputClamp(t *testing.T) {
	c := PID{KP: 10, OutMin: -1, OutMax: 1}
	if got := c.Update(100, 0.01); got != 1 {
		t.Errorf("clamped output = %v, want 1", got)
	}
	if got := c.Update(-100, 0.01); got != -1 {
		t.Errorf("clamped output = %v, want -1", got)
	}
}

func TestPIDReset(t *testing.T) {
	c := PID{KI: 1, KD: 1}
	c.Update(5, 1)
	c.Reset()
	if got := c.Update(0, 1); got != 0 {
		t.Errorf("after reset output = %v, want 0", got)
	}
}

func TestPIDUpdateWithRate(t *testing.T) {
	c := PID{KP: 1, KD: 2}
	// Derivative-on-measurement: output = e − KD·rate.
	if got := c.UpdateWithRate(3, 0.5, 0.01); math.Abs(got-2) > 1e-12 {
		t.Errorf("output = %v, want 2", got)
	}
}

// flyTo runs the closed loop (perfect state feedback) until the tracker
// completes or the time budget runs out, returning the final true state
// and elapsed time.
func flyTo(t *testing.T, prof vehicle.Profile, plan mission.Plan, budget float64) (vehicle.State, float64) {
	t.Helper()
	ap := ForProfile(prof)
	tr := mission.NewTracker(plan, 2)
	s := vehicle.State{}
	dt := 0.01
	var elapsed float64
	for elapsed = 0.0; elapsed < budget && !tr.Done(); elapsed += dt {
		tr.Advance(s.X, s.Y, s.Z)
		u := ap.Update(&s, tr.Target(), dt)
		if prof.IsQuad() {
			s = prof.Quad.Step(s, u, vehicle.Wind{}, dt)
		} else {
			s = prof.Rover.Step(s, u, vehicle.Wind{}, dt)
		}
	}
	return s, elapsed
}

func TestQuadFliesStraightMission(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	plan := mission.NewStraight(50, 10)
	s, elapsed := flyTo(t, prof, plan, 120)
	if elapsed >= 120 {
		t.Fatalf("mission did not complete; final state %+v", s)
	}
	if d := s.HorizontalDistanceTo(50, 0); d > 3 {
		t.Errorf("landed %vm from destination", d)
	}
	if s.Z > 0.5 {
		t.Errorf("did not land: z = %v", s.Z)
	}
}

func TestQuadFliesCircularMission(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.ArduCopter)
	plan := mission.NewCircular(25, 8, 10)
	s, elapsed := flyTo(t, prof, plan, 300)
	if elapsed >= 300 {
		t.Fatalf("circular mission did not complete; final %+v", s)
	}
	if d := s.HorizontalDistanceTo(25, 0); d > 3 {
		t.Errorf("landed %vm from destination", d)
	}
}

func TestRoverDrivesPolygonMission(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.AionR1)
	plan := mission.NewPolygon(mission.Polygon2, 4, 25, 0)
	s, elapsed := flyTo(t, prof, plan, 300)
	if elapsed >= 300 {
		t.Fatalf("rover mission did not complete; final %+v", s)
	}
	if d := s.HorizontalDistanceTo(0, 0); d > 3 {
		t.Errorf("stopped %vm from destination", d)
	}
}

func TestQuadHoldsAltitudeInWind(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	ap := NewQuadAutopilot(prof)
	s := vehicle.State{Z: 10}
	target := mission.Waypoint{X: 0, Y: 0, Z: 10}
	dt := 0.01
	w := vehicle.Wind{VX: 6}
	for i := 0; i < 3000; i++ {
		u := ap.Update(&s, target, dt)
		s = prof.Quad.Step(s, u, w, dt)
	}
	if math.Abs(s.Z-10) > 1 {
		t.Errorf("altitude drifted in wind: z = %v", s.Z)
	}
	if s.HorizontalDistanceTo(0, 0) > 3 {
		t.Errorf("position drifted in wind: (%v, %v)", s.X, s.Y)
	}
}

func TestQuadThrustSaturation(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.Pixhawk)
	ap := NewQuadAutopilot(prof)
	// Demand a huge climb; thrust must respect the profile limit.
	u := ap.Update(&vehicle.State{}, mission.Waypoint{Z: 1000}, 0.01)
	if u.Thrust > prof.MaxThrust+1e-9 {
		t.Errorf("thrust %v exceeds max %v", u.Thrust, prof.MaxThrust)
	}
}

func TestForProfileDispatch(t *testing.T) {
	if _, ok := ForProfile(vehicle.MustProfile(vehicle.Pixhawk)).(*QuadAutopilot); !ok {
		t.Error("quad profile should yield QuadAutopilot")
	}
	if _, ok := ForProfile(vehicle.MustProfile(vehicle.AionR1)).(*RoverAutopilot); !ok {
		t.Error("rover profile should yield RoverAutopilot")
	}
}

func TestRoverSlowsNearTarget(t *testing.T) {
	prof := vehicle.MustProfile(vehicle.AionR1)
	ap := NewRoverAutopilot(prof)
	far := ap.Update(&vehicle.State{}, mission.Waypoint{X: 100}, 0.01)
	ap.Reset()
	near := ap.Update(&vehicle.State{}, mission.Waypoint{X: 0.5}, 0.01)
	if near.Thrust >= far.Thrust {
		t.Errorf("no slowdown near target: near %v, far %v", near.Thrust, far.Thrust)
	}
}
