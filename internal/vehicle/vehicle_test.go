package vehicle

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func testQuad() Quadcopter {
	return MustProfile(Pixhawk).Quad
}

func TestQuadHoverEquilibrium(t *testing.T) {
	q := testQuad()
	s := State{Z: 10}
	u := Input{Thrust: q.HoverThrust()}
	for i := 0; i < 1000; i++ {
		s = q.Step(s, u, Wind{}, 0.005)
	}
	if math.Abs(s.Z-10) > 1e-6 {
		t.Errorf("hover drifted: z = %v", s.Z)
	}
	if s.Speed() > 1e-9 {
		t.Errorf("hover gained speed: %v", s.Speed())
	}
}

func TestQuadFreeFall(t *testing.T) {
	q := testQuad()
	s := State{Z: 100}
	var elapsed float64
	for i := 0; i < 200; i++ {
		s = q.Step(s, Input{}, Wind{}, 0.005)
		elapsed += 0.005
	}
	// With drag, fall distance is slightly less than ½gt² but must be close
	// for the first second.
	want := 0.5 * Gravity * elapsed * elapsed
	fell := 100 - s.Z
	if fell <= 0.8*want || fell > want {
		t.Errorf("free fall after %vs fell %vm, want ≈ %v", elapsed, fell, want)
	}
}

func TestQuadThrustClimbs(t *testing.T) {
	q := testQuad()
	s := State{Z: 5}
	u := Input{Thrust: 1.3 * q.HoverThrust()}
	for i := 0; i < 400; i++ {
		s = q.Step(s, u, Wind{}, 0.005)
	}
	if s.Z <= 5 {
		t.Errorf("excess thrust did not climb: z = %v", s.Z)
	}
	if s.VZ <= 0 {
		t.Errorf("vz = %v, want > 0", s.VZ)
	}
}

func TestQuadPitchProducesForwardMotion(t *testing.T) {
	q := testQuad()
	// Pitch forward slightly, compensate thrust to roughly hold altitude.
	s := State{Z: 10, Pitch: 0.1}
	u := Input{Thrust: q.HoverThrust() / math.Cos(0.1)}
	for i := 0; i < 400; i++ {
		s = q.Step(s, u, Wind{}, 0.005)
	}
	if s.X <= 0 {
		t.Errorf("pitched drone did not move forward: x = %v", s.X)
	}
}

func TestQuadGroundClamp(t *testing.T) {
	q := testQuad()
	s := State{Z: 0.01, VZ: -5}
	s = q.Step(s, Input{}, Wind{}, 0.05)
	if s.Z < 0 {
		t.Errorf("state went below ground: z = %v", s.Z)
	}
	if s.VZ < 0 {
		t.Errorf("downward velocity retained on ground: vz = %v", s.VZ)
	}
}

func TestQuadWindPushes(t *testing.T) {
	q := testQuad()
	s := State{Z: 10}
	u := Input{Thrust: q.HoverThrust()}
	w := Wind{VX: 8}
	for i := 0; i < 1000; i++ {
		s = q.Step(s, u, w, 0.005)
	}
	if s.X <= 0.1 {
		t.Errorf("wind did not push drone: x = %v", s.X)
	}
}

func TestQuadYawMoment(t *testing.T) {
	q := testQuad()
	s := State{Z: 10}
	u := Input{Thrust: q.HoverThrust(), MYaw: 0.01}
	for i := 0; i < 200; i++ {
		s = q.Step(s, u, Wind{}, 0.005)
	}
	if s.WYaw <= 0 {
		t.Errorf("yaw moment produced no yaw rate: %v", s.WYaw)
	}
}

func TestStateVecRoundTrip(t *testing.T) {
	s := State{X: 1, Y: 2, Z: 3, VX: 4, VY: 5, VZ: 6, Roll: 0.1, Pitch: 0.2, Yaw: 0.3, WRoll: 0.4, WPitch: 0.5, WYaw: 0.6}
	got := StateFromVec(s.Vec())
	if got != s {
		t.Errorf("round trip: got %+v, want %+v", got, s)
	}
}

func TestWrapAngle(t *testing.T) {
	tests := []struct {
		give, want float64
	}{
		{give: 0, want: 0},
		{give: math.Pi / 2, want: math.Pi / 2},
		{give: 3 * math.Pi, want: math.Pi},
		{give: -3 * math.Pi, want: math.Pi},
		{give: 2 * math.Pi, want: 0},
	}
	for _, tt := range tests {
		if got := WrapAngle(tt.give); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("WrapAngle(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

// TestWrapAngleTerminates: a huge or infinite angle must wrap in bounded
// time. Each call runs in a goroutine under a deadline, so a wrap that
// never returns fails the test instead of hanging the binary.
func TestWrapAngleTerminates(t *testing.T) {
	deadline := time.After(5 * time.Second)
	for _, a := range []float64{math.Inf(1), math.Inf(-1), 1e300, -1e300, 0x1p60, -0x1p60, math.NaN()} {
		done := make(chan float64, 1)
		go func() { done <- WrapAngle(a) }()
		select {
		case got := <-done:
			switch {
			case math.IsInf(a, 0) || math.IsNaN(a):
				if !math.IsNaN(got) {
					t.Errorf("WrapAngle(%v) = %v, want NaN", a, got)
				}
			case !(got > -math.Pi && got <= math.Pi):
				t.Errorf("WrapAngle(%v) = %v, outside (−π, π]", a, got)
			}
		case <-deadline:
			t.Fatalf("WrapAngle(%v) did not return within 5 s", a)
		}
	}
}

// loopWrapAngle is a verbatim copy of the wrap loop as it stood before
// huge angles were reduced first: the reference for |a| ≤ 8π.
func loopWrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// TestWrapAngleMatchesLoop: up to ±8π the wrap is the old loop, bit for
// bit, including the boundaries and their neighbours.
func TestWrapAngleMatchesLoop(t *testing.T) {
	cases := []float64{math.Copysign(0, -1)}
	for k := -8; k <= 8; k++ {
		c := float64(k) * math.Pi
		cases = append(cases, c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1)))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		cases = append(cases, (2*rng.Float64()-1)*8*math.Pi)
	}
	for _, a := range cases {
		if math.Abs(a) > 8*math.Pi {
			continue
		}
		if got, want := WrapAngle(a), loopWrapAngle(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("WrapAngle(%v) = %v, loop gives %v", a, got, want)
		}
	}
}

func TestRoverStraightLine(t *testing.T) {
	r := MustProfile(AionR1).Rover
	s := State{VX: 2} // heading yaw=0, moving +x
	for i := 0; i < 200; i++ {
		s = r.Step(s, Input{Thrust: r.DragCoef * 2}, Wind{}, 0.01)
	}
	if s.X <= 1 {
		t.Errorf("rover did not advance: x = %v", s.X)
	}
	if math.Abs(s.Y) > 0.01 {
		t.Errorf("rover drifted sideways: y = %v", s.Y)
	}
}

func TestRoverTurns(t *testing.T) {
	r := MustProfile(AionR1).Rover
	s := State{VX: 2}
	u := Input{Thrust: r.DragCoef * 2, MYaw: 0.3}
	for i := 0; i < 300; i++ {
		s = r.Step(s, u, Wind{}, 0.01)
	}
	if math.Abs(s.Yaw) < 0.1 {
		t.Errorf("steering produced no yaw: %v", s.Yaw)
	}
	if math.Abs(s.Y) < 0.1 {
		t.Errorf("turning rover stayed on axis: y = %v", s.Y)
	}
}

func TestRoverSpeedLimit(t *testing.T) {
	r := MustProfile(AionR1).Rover
	s := State{}
	u := Input{Thrust: 100}
	for i := 0; i < 500; i++ {
		s = r.Step(s, u, Wind{}, 0.01)
	}
	if s.Speed2D() > r.MaxSpeed+1e-9 {
		t.Errorf("speed %v exceeds limit %v", s.Speed2D(), r.MaxSpeed)
	}
}

func TestRoverSteeringClamp(t *testing.T) {
	r := MustProfile(AionR1).Rover
	d1 := r.Derivative(State{VX: 2}, Input{MYaw: 10}, Wind{})
	d2 := r.Derivative(State{VX: 2}, Input{MYaw: r.MaxSteer}, Wind{})
	if math.Abs(d1.Yaw-d2.Yaw) > 1e-12 {
		t.Errorf("steering not clamped: %v vs %v", d1.Yaw, d2.Yaw)
	}
}

func TestRoverZeroesAltitudeChannels(t *testing.T) {
	r := MustProfile(AionR1).Rover
	s := State{Z: 5, VZ: 1, Roll: 0.2, VX: 1}
	s = r.Step(s, Input{}, Wind{}, 0.01)
	if s.Z != 0 || s.VZ != 0 || s.Roll != 0 {
		t.Errorf("rover retained altitude channels: %+v", s)
	}
}

func TestProfilesTable2SensorCounts(t *testing.T) {
	// Table 2 exact sensor counts.
	tests := []struct {
		name ProfileName
		want SensorCounts
	}{
		{name: Pixhawk, want: SensorCounts{GPS: 1, Gyro: 3, Accel: 3, Mag: 3, Baro: 1}},
		{name: Tarot, want: SensorCounts{GPS: 1, Gyro: 3, Accel: 3, Mag: 3, Baro: 2}},
		{name: SkyViper, want: SensorCounts{GPS: 1, Gyro: 1, Accel: 1, Mag: 1, Baro: 1}},
		{name: AionR1, want: SensorCounts{GPS: 1, Gyro: 3, Accel: 3, Mag: 3, Baro: 1}},
		{name: ArduCopter, want: SensorCounts{GPS: 1, Gyro: 3, Accel: 3, Mag: 1, Baro: 1}},
		{name: ArduRover, want: SensorCounts{GPS: 1, Gyro: 3, Accel: 3, Mag: 1, Baro: 1}},
	}
	for _, tt := range tests {
		t.Run(string(tt.name), func(t *testing.T) {
			p := MustProfile(tt.name)
			if p.Counts != tt.want {
				t.Errorf("counts = %+v, want %+v", p.Counts, tt.want)
			}
		})
	}
}

func TestLookupProfileUnknown(t *testing.T) {
	if _, err := LookupProfile("NoSuchRV"); err == nil {
		t.Error("expected error for unknown profile")
	}
}

func TestProfileKinds(t *testing.T) {
	for _, name := range AllRVs() {
		p := MustProfile(name)
		switch p.Kind {
		case KindQuadcopter:
			if p.Quad.Mass <= 0 {
				t.Errorf("%s: quad mass %v", name, p.Quad.Mass)
			}
		case KindRover:
			if p.Rover.LF <= 0 || p.Rover.LR <= 0 {
				t.Errorf("%s: rover geometry %+v", name, p.Rover)
			}
		default:
			t.Errorf("%s: bad kind %v", name, p.Kind)
		}
	}
}

// TestRealAndSimulatedPartition: the profiles that are not real-RV
// stand-ins are the two SITL vehicles of Tables 4–6 and Fig. 10.
func TestRealAndSimulatedPartition(t *testing.T) {
	if got := len(RealRVs()); got != 4 {
		t.Errorf("RealRVs = %d, want 4", got)
	}
	if got := len(AllRVs()); got != 6 {
		t.Errorf("AllRVs = %d, want 6", got)
	}
	real := make(map[ProfileName]bool)
	for _, name := range RealRVs() {
		real[name] = true
	}
	var simulated []ProfileName
	for _, name := range AllRVs() {
		if !real[name] {
			simulated = append(simulated, name)
		}
	}
	if len(simulated) != 2 || simulated[0] != ArduCopter || simulated[1] != ArduRover {
		t.Errorf("simulated RVs = %v, want [ArduCopter ArduRover]", simulated)
	}
}

// Property: energy-like sanity — under zero input and no wind, a quad's
// speed never increases (drag + gravity only decelerate horizontal motion;
// vertical speeds grow, so check horizontal only).
func TestPropertyQuadDragDecaysHorizontalSpeed(t *testing.T) {
	q := testQuad()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := State{Z: 50, VX: r.Float64() * 10, VY: r.Float64() * 10}
		prev := s.Speed2D()
		for i := 0; i < 50; i++ {
			s = q.Step(s, Input{}, Wind{}, 0.005)
			cur := s.Speed2D()
			if cur > prev+1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: RK4 integration keeps all states finite for bounded random
// inputs over a short horizon.
func TestPropertyQuadStatesStayFinite(t *testing.T) {
	q := testQuad()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := State{Z: 20}
		for i := 0; i < 100; i++ {
			u := Input{
				Thrust: r.Float64() * 2 * q.HoverThrust(),
				MRoll:  (r.Float64() - 0.5) * 0.1,
				MPitch: (r.Float64() - 0.5) * 0.1,
				MYaw:   (r.Float64() - 0.5) * 0.1,
			}
			s = q.Step(s, u, Wind{}, 0.005)
			for _, v := range s.Vec() {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWindSpeed(t *testing.T) {
	if got := (Wind{VX: 3, VY: 4}).Speed(); got != 5 {
		t.Errorf("Wind.Speed = %v, want 5", got)
	}
}

func TestKindString(t *testing.T) {
	if KindQuadcopter.String() != "quadcopter" || KindRover.String() != "rover" {
		t.Error("Kind.String wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind should stringify to unknown")
	}
}
