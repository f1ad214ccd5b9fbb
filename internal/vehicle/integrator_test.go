package vehicle

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// model pairs one profile's Step and Derivative with the reference
// integrator's, for the vehicle class the profile flies. stepInPlace runs
// the pointer StepInto with the state as both its input and its output.
type model struct {
	step, refStep   func(State, Input, Wind, float64) State
	stepInPlace     func(*State, Input, Wind, float64)
	deriv, refDeriv func(State, Input, Wind) State
	input           func(*rand.Rand) Input
}

func modelFor(p Profile) model {
	if p.IsQuad() {
		q := p.Quad
		return model{
			step: q.Step, refStep: refQuad(q).Step,
			stepInPlace: func(s *State, u Input, w Wind, dt float64) { q.StepInto(s, s, &u, &w, dt) },
			deriv:       q.Derivative, refDeriv: refQuad(q).Derivative,
			input: func(rng *rand.Rand) Input {
				m := 4 * q.IX * 20 // the recovery controller's moment authority
				return Input{
					Thrust: 2 * rng.Float64() * q.HoverThrust(),
					MRoll:  m * (2*rng.Float64() - 1),
					MPitch: m * (2*rng.Float64() - 1),
					MYaw:   m * (2*rng.Float64() - 1),
				}
			},
		}
	}
	r := p.Rover
	return model{
		step: r.Step, refStep: refRover(r).Step,
		stepInPlace: func(s *State, u Input, w Wind, dt float64) { r.StepInto(s, s, &u, &w, dt) },
		deriv:       r.Derivative, refDeriv: refRover(r).Derivative,
		input: func(rng *rand.Rand) Input {
			u := Input{Thrust: p.MaxThrust * (2*rng.Float64() - 1)}
			// Half the draws lie outside ±MaxSteer and saturate; some hit
			// the limit exactly or steer hard over.
			switch rng.Intn(8) {
			case 0:
				u.MYaw = r.MaxSteer
			case 1:
				u.MYaw = -r.MaxSteer
			case 2:
				u.MYaw = 10 * (2*rng.Float64() - 1)
			default:
				u.MYaw = 2 * r.MaxSteer * (2*rng.Float64() - 1)
			}
			return u
		},
	}
}

func randState(rng *rand.Rand) State {
	sym := func(scale float64) float64 { return scale * (2*rng.Float64() - 1) }
	s := State{
		X: sym(200), Y: sym(200), Z: 50 * rng.Float64(),
		VX: sym(8), VY: sym(8), VZ: sym(4),
		Roll: sym(1), Pitch: sym(1), Yaw: sym(4),
		WRoll: sym(3), WPitch: sym(3), WYaw: sym(3),
	}
	if rng.Intn(8) == 0 { // standing still
		s.VX, s.VY, s.VZ = 0, 0, 0
	}
	return s
}

func randWind(rng *rand.Rand) Wind {
	if rng.Intn(4) == 0 {
		return Wind{}
	}
	return Wind{VX: 12 * (2*rng.Float64() - 1), VY: 12 * (2*rng.Float64() - 1), VZ: 2 * (2*rng.Float64() - 1)}
}

// sameBits reports whether a and b agree bit for bit, naming the first
// field that differs.
func sameBits(a, b State) (bool, string) {
	var av, bv [12]float64
	a.VecInto(av[:])
	b.VecInto(bv[:])
	names := [12]string{"X", "Y", "Z", "VX", "VY", "VZ", "Roll", "Pitch", "Yaw", "WRoll", "WPitch", "WYaw"}
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			return false, fmt.Sprintf("%s: %v (%#x) vs reference %v (%#x)",
				names[i], av[i], math.Float64bits(av[i]), bv[i], math.Float64bits(bv[i]))
		}
	}
	return true, ""
}

// TestIntegratorMatchesReference pins Step, StepInto and Derivative bit
// for bit to the reference integrator on every profile: single steps from
// random states, inputs and winds, a quarter of them diving into the
// ground, with StepInto run in place; then chained runs in which every
// step starts from the state the last one produced. An in-place step
// that wrote its output before the last RK4 stage had read the input
// would feed that stage a half-updated state.
func TestIntegratorMatchesReference(t *testing.T) {
	dts := []float64{0.005, 0.01, 0.05}
	for i, name := range AllRVs() {
		p := MustProfile(name)
		m := modelFor(p)
		t.Run(string(name), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			clamped, limited := 0, 0
			for n := 0; n < 20000; n++ {
				s, u, w := randState(rng), m.input(rng), randWind(rng)
				if n%4 == 0 { // diving into the ground
					s.Z, s.VZ = 0.05*rng.Float64(), -2-4*rng.Float64()
				}
				if ok, diff := sameBits(m.deriv(s, u, w), m.refDeriv(s, u, w)); !ok {
					t.Fatalf("Derivative(%+v, %+v, %+v): %s", s, u, w, diff)
				}
				dt := dts[n%len(dts)]
				want := m.refStep(s, u, w, dt)
				if ok, diff := sameBits(m.step(s, u, w, dt), want); !ok {
					t.Fatalf("Step(%+v, %+v, %+v, %v): %s", s, u, w, dt, diff)
				}
				got := s
				m.stepInPlace(&got, u, w, dt)
				if ok, diff := sameBits(got, want); !ok {
					t.Fatalf("StepInto in place from %+v, %+v, %+v, %v: %s", s, u, w, dt, diff)
				}
				if p.IsQuad() && s.Z+s.VZ*dt < 0 && want.Z == 0 {
					clamped++
				}
				if !p.IsQuad() && math.Abs(want.Speed2D()-p.Rover.MaxSpeed) < 1e-12 {
					limited++
				}
			}
			if p.IsQuad() && clamped == 0 {
				t.Error("no draw reached the ground clamp")
			}
			if !p.IsQuad() && limited == 0 {
				t.Error("no draw reached the speed limit")
			}
			for chain := 0; chain < 3; chain++ {
				s := State{Z: 20} // a rover starts at rest: zero speed
				if chain > 0 {
					s = randState(rng)
				}
				u, w := m.input(rng), randWind(rng)
				dt := dts[chain%2]
				for n := 0; n < 1500; n++ {
					if n%50 == 0 {
						u, w = m.input(rng), randWind(rng)
					}
					got, want := m.step(s, u, w, dt), m.refStep(s, u, w, dt)
					if ok, diff := sameBits(got, want); !ok {
						t.Fatalf("chain %d step %d from %+v: %s", chain, n, s, diff)
					}
					s = got
				}
				for _, v := range s.Vec() {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("chain %d diverged to %+v; the comparison needs finite states", chain, s)
					}
				}
			}
		})
	}
}

// TestSincosMatchesSinCos checks that math.Sincos returns exactly the
// bits of math.Sin and math.Cos, which the integrator relies on to share
// one call per angle. Inputs: uniform angles, large normals, and random
// bit patterns, which cover the Payne-Hanek reduction of huge arguments.
func TestSincosMatchesSinCos(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		s, c := math.Sincos(x)
		ws, wc := math.Sin(x), math.Cos(x)
		if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
			t.Fatalf("Sincos(%v [%#x]) = (%v, %v), want (%v, %v)", x, math.Float64bits(x), s, c, ws, wc)
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), math.Pi, -math.Pi, math.Pi / 2, -math.Pi / 2,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
	} {
		check(x)
	}
	// NaN in, NaN out; Sin returns its argument and Sincos a fresh NaN, so
	// the payload bits differ.
	if s, c := math.Sincos(math.NaN()); !math.IsNaN(s) || !math.IsNaN(c) {
		t.Fatalf("Sincos(NaN) = (%v, %v)", s, c)
	}

	rng := rand.New(rand.NewSource(7))
	const perKind = 3_400_000
	checked := 0
	for n := 0; n < perKind; n++ {
		check(8 * math.Pi * (rng.Float64() - 0.5))
		check(1e3 * rng.NormFloat64())
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) {
			continue
		}
		check(x)
		checked++
	}
	if checked += 2 * perKind; checked < 10_000_000 {
		t.Fatalf("checked %d non-NaN inputs, want at least 1e7", checked)
	}
	t.Logf("%d non-NaN inputs agree", checked)
}

var sinkState State

// cruise returns, for each vehicle class, one Step and one Derivative
// call at a cruising operating point (ψ = 0.7, v = 1.3 m/s) in a light
// wind. The allocation budget and BenchmarkStep share them.
func cruise() []struct {
	class       string
	step, deriv func()
} {
	q, r := MustProfile(Pixhawk).Quad, MustProfile(AionR1).Rover
	w := Wind{VX: 2, VY: -1}
	vx, vy := 1.3*math.Cos(0.7), 1.3*math.Sin(0.7)
	qs := State{Z: 10, VX: vx, VY: vy, Roll: 0.1, Pitch: -0.05, Yaw: 0.7}
	qu := Input{Thrust: q.HoverThrust(), MRoll: 0.01}
	rs := State{VX: vx, VY: vy, Yaw: 0.7}
	ru := Input{Thrust: 0.4, MYaw: 0.2}
	return []struct {
		class       string
		step, deriv func()
	}{
		{"quad", func() { sinkState = q.Step(qs, qu, w, 0.01) }, func() { sinkState = q.Derivative(qs, qu, w) }},
		{"rover", func() { sinkState = r.Step(rs, ru, w, 0.01) }, func() { sinkState = r.Derivative(rs, ru, w) }},
	}
}

// TestStepZeroAlloc pins the integrator at zero allocations: Step runs
// several times per control tick (plant, EKF predict, shadow strapdown).
func TestStepZeroAlloc(t *testing.T) {
	for _, c := range cruise() {
		if got := testing.AllocsPerRun(200, c.step); got != 0 {
			t.Errorf("%s Step: %v allocs/op, want 0", c.class, got)
		}
		if got := testing.AllocsPerRun(200, c.deriv); got != 0 {
			t.Errorf("%s Derivative: %v allocs/op, want 0", c.class, got)
		}
	}
}

// BenchmarkStep times one RK4 step of each vehicle class.
func BenchmarkStep(b *testing.B) {
	for _, c := range cruise() {
		b.Run(c.class, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.step()
			}
		})
	}
}
