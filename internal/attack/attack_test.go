package attack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sensors"
)

func TestDefaultParamsMatchTable2(t *testing.T) {
	p := DefaultParams()
	if p.GPSBiasMin != 5 || p.GPSBiasMax != 50 {
		t.Errorf("GPS range = [%v, %v], want [5, 50]", p.GPSBiasMin, p.GPSBiasMax)
	}
	if p.GyroBiasMin != 0.5 || p.GyroBiasMax != 9.47 {
		t.Errorf("gyro range = [%v, %v]", p.GyroBiasMin, p.GyroBiasMax)
	}
	if p.AccelBiasMin != 0.5 || p.AccelBiasMax != 6.2 {
		t.Errorf("accel range = [%v, %v]", p.AccelBiasMin, p.AccelBiasMax)
	}
	if p.MagYaw != math.Pi {
		t.Errorf("mag yaw = %v, want π", p.MagYaw)
	}
	if p.RangeM != 200 {
		t.Errorf("range = %v, want 200", p.RangeM)
	}
}

func TestNewDrawsWithinRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := DefaultParams()
	for i := 0; i < 50; i++ {
		a := New(rng, p, sensors.NewTypeSet(sensors.GPS, sensors.Gyro, sensors.Accel), 0, 10)
		b := a.Base()
		for ax := 0; ax < 3; ax++ {
			if g := math.Abs(b.GPSPos[ax]); g < p.GPSBiasMin || g > p.GPSBiasMax {
				t.Fatalf("GPS bias %v out of range", g)
			}
			if g := math.Abs(b.Gyro[ax]); g < p.GyroBiasMin || g > p.GyroBiasMax {
				t.Fatalf("gyro bias %v out of range", g)
			}
			if g := math.Abs(b.Accel[ax]); g < p.AccelBiasMin || g > p.AccelBiasMax {
				t.Fatalf("accel bias %v out of range", g)
			}
		}
		if b.MagYaw != 0 || b.Baro != 0 {
			t.Fatalf("untargeted sensors got bias: %+v", b)
		}
	}
}

func TestActiveWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(rng, DefaultParams(), sensors.NewTypeSet(sensors.GPS), 5, 30)
	tests := []struct {
		give float64
		want bool
	}{
		{give: 0, want: false},
		{give: 4.99, want: false},
		{give: 5, want: true},
		{give: 29.99, want: true},
		{give: 30, want: false},
	}
	for _, tt := range tests {
		if got := a.ActiveAt(tt.give); got != tt.want {
			t.Errorf("ActiveAt(%v) = %v, want %v", tt.give, got, tt.want)
		}
		if (a.BiasAt(tt.give).IsZero()) == tt.want {
			t.Errorf("BiasAt(%v) zero-ness inconsistent with window", tt.give)
		}
	}
}

func TestPersistentBiasConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(rng, DefaultParams(), sensors.NewTypeSet(sensors.Baro), 0, 10)
	if a.BiasAt(1) != a.BiasAt(9) {
		t.Error("persistent bias varied over time")
	}
}

func TestGradualRampsUp(t *testing.T) {
	bias := sensors.Bias{GPSPos: [3]float64{10, 0, 0}}
	a := NewWithBias(rand.New(rand.NewSource(3)), bias, 0, 20, Gradual)
	early := a.BiasAt(1).GPSPos[0]
	late := a.BiasAt(19).GPSPos[0]
	if early >= late {
		t.Errorf("gradual bias not increasing: %v then %v", early, late)
	}
	if math.Abs(late-10) > 1 {
		t.Errorf("gradual bias should approach base: %v", late)
	}
}

func TestGradualRampDurClamp(t *testing.T) {
	bias := sensors.Bias{Baro: 4}
	a := NewWithBias(rand.New(rand.NewSource(3)), bias, 0, 100, Gradual)
	a.RampDur = 10
	if got := a.BiasAt(50).Baro; got != 4 {
		t.Errorf("after ramp, bias = %v, want full 4", got)
	}
}

func TestIntermittentDutyCycle(t *testing.T) {
	bias := sensors.Bias{Baro: 4}
	a := NewWithBias(rand.New(rand.NewSource(3)), bias, 0, 100, Intermittent)
	a.OnDur, a.OffDur = 2, 3
	if a.BiasAt(1).Baro != 4 {
		t.Error("should be on during on-phase")
	}
	if a.BiasAt(3).Baro != 0 {
		t.Error("should be off during off-phase")
	}
	if a.BiasAt(6).Baro != 4 {
		t.Error("should be on again in the next period")
	}
}

func TestRandomBiasBounded(t *testing.T) {
	bias := sensors.Bias{GPSPos: [3]float64{10, 0, 0}}
	a := NewWithBias(rand.New(rand.NewSource(4)), bias, 0, 100, RandomBias)
	for i := 0; i < 100; i++ {
		v := a.BiasAt(float64(i)).GPSPos[0]
		if v < 0 || v > 10 {
			t.Fatalf("random bias %v outside [0, base]", v)
		}
	}
}

func TestScheduleSumsOverlapping(t *testing.T) {
	b1 := sensors.Bias{Baro: 4}
	b2 := sensors.Bias{Baro: 2, MagYaw: 1}
	s := NewSchedule(
		NewWithBias(nil, b1, 0, 10, Persistent),
		NewWithBias(nil, b2, 5, 15, Persistent),
	)
	if got := s.BiasAt(7).Baro; got != 6 {
		t.Errorf("overlapping baro = %v, want 6", got)
	}
	if got := s.BiasAt(2).Baro; got != 4 {
		t.Errorf("single baro = %v, want 4", got)
	}
	if !s.ActiveAt(12) || s.ActiveAt(20) {
		t.Error("ActiveAt wrong")
	}
}

func TestCombinationsCounts(t *testing.T) {
	// C(5,k) = 5, 10, 10, 5, 1 for k = 1..5.
	wants := map[int]int{0: 1, 1: 5, 2: 10, 3: 10, 4: 5, 5: 1, 6: 0}
	for k, want := range wants {
		if got := len(Combinations(k)); got != want {
			t.Errorf("len(Combinations(%d)) = %d, want %d", k, got, want)
		}
	}
}

func TestCombinationsAreDistinctAndSizedK(t *testing.T) {
	seen := make(map[string]bool)
	for _, c := range Combinations(2) {
		if c.Len() != 2 {
			t.Errorf("combo %v has size %d", c, c.Len())
		}
		key := c.String()
		if seen[key] {
			t.Errorf("duplicate combo %v", c)
		}
		seen[key] = true
	}
}

func TestRandomTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 1; k <= 5; k++ {
		got := RandomTargets(rng, k)
		if got.Len() != k {
			t.Errorf("RandomTargets(%d).Len() = %d", k, got.Len())
		}
	}
	if got := RandomTargets(rng, 9); got.Len() != 0 {
		t.Errorf("impossible k should give empty set, got %v", got)
	}
}

// Property: an SDA's reported targets always equal its base bias targets.
func TestPropertyTargetsConsistent(t *testing.T) {
	f := func(seed int64, k0 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(k0)%5
		targets := RandomTargets(rng, k)
		a := New(rng, DefaultParams(), targets, 0, 10)
		return a.Base().Targets() == targets
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: outside the window the bias is always exactly zero, for every
// mode.
func TestPropertyZeroOutsideWindow(t *testing.T) {
	f := func(seed int64, mode0 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mode := Mode(1 + int(mode0)%4)
		a := NewWithBias(rng, sensors.Bias{Baro: 5}, 10, 20, mode)
		return a.BiasAt(9.99).IsZero() && a.BiasAt(20.01).IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestModeString(t *testing.T) {
	if Persistent.String() != "persistent" || Intermittent.String() != "intermittent" {
		t.Error("Mode.String wrong")
	}
	if Mode(42).String() == "" {
		t.Error("unknown mode should stringify")
	}
}

func TestEmitterCoverage(t *testing.T) {
	e := Emitter{X: 100, Y: 0, Range: 200}
	tests := []struct {
		x, y float64
		want bool
	}{
		{x: 100, y: 0, want: true},
		{x: 299, y: 0, want: true},
		{x: 301, y: 0, want: false},
		{x: 100, y: 200, want: true},
		{x: 100, y: 201, want: false},
	}
	for _, tt := range tests {
		if got := e.Covers(tt.x, tt.y); got != tt.want {
			t.Errorf("Covers(%v, %v) = %v, want %v", tt.x, tt.y, got, tt.want)
		}
	}
	if !(Emitter{}).Covers(1e6, 1e6) {
		t.Error("zero-range emitter should cover everything (idealized)")
	}
}

func TestBiasAtPosHonoursRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := New(rng, DefaultParams(), sensors.NewTypeSet(sensors.GPS), 0, 100).
		WithEmitter(Emitter{X: 0, Y: 0, Range: 200})
	if a.BiasAtPos(10, 50, 0).IsZero() {
		t.Error("in-range vehicle should receive the bias")
	}
	if !a.BiasAtPos(10, 500, 0).IsZero() {
		t.Error("out-of-range vehicle should not receive the bias")
	}
	// Without an emitter the bias is position-independent.
	b := New(rng, DefaultParams(), sensors.NewTypeSet(sensors.GPS), 0, 100)
	if b.BiasAtPos(10, 1e6, 1e6).IsZero() {
		t.Error("emitterless SDA should reach everywhere")
	}
}

func TestScheduleInRangeAt(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := New(rng, DefaultParams(), sensors.NewTypeSet(sensors.Baro), 5, 15).
		WithEmitter(Emitter{X: 0, Y: 0, Range: 100})
	s := NewSchedule(a)
	if s.InRangeAt(10, 50, 0) != true {
		t.Error("active + in range should report true")
	}
	if s.InRangeAt(10, 500, 0) != false {
		t.Error("active + out of range should report false")
	}
	if s.InRangeAt(20, 50, 0) != false {
		t.Error("inactive window should report false")
	}
	if got := s.BiasAtPos(10, 500, 0); !got.IsZero() {
		t.Errorf("out-of-range schedule bias = %+v", got)
	}
}
