package sensors

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vehicle"
)

func TestTable1Mapping(t *testing.T) {
	tests := []struct {
		give Type
		want []StateIndex
	}{
		{give: GPS, want: []StateIndex{SX, SY, SZ, SVX, SVY, SVZ}},
		{give: Gyro, want: []StateIndex{SRoll, SPitch, SYaw, SWRoll, SWPitch, SWYaw}},
		{give: Accel, want: []StateIndex{SAX, SAY, SAZ}},
		{give: Mag, want: []StateIndex{SMagX, SMagY, SMagZ}},
		{give: Baro, want: []StateIndex{SBaroAlt}},
	}
	for _, tt := range tests {
		t.Run(tt.give.String(), func(t *testing.T) {
			got := StatesOf(tt.give)
			if len(got) != len(tt.want) {
				t.Fatalf("StatesOf = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("StatesOf[%d] = %v, want %v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

func TestSensorOfIsInverseOfStatesOf(t *testing.T) {
	for _, typ := range AllTypes() {
		for _, idx := range StatesOf(typ) {
			if got := SensorOf(idx); got != typ {
				t.Errorf("SensorOf(%v) = %v, want %v", idx, got, typ)
			}
		}
	}
}

func TestEveryStateHasASensor(t *testing.T) {
	for _, idx := range AllStates() {
		if SensorOf(idx) == 0 {
			t.Errorf("state %v has no sensor", idx)
		}
	}
}

func TestStatesOfUnknownType(t *testing.T) {
	if got := StatesOf(Type(42)); got != nil {
		t.Errorf("StatesOf(42) = %v, want nil", got)
	}
}

func TestTypeSetBasics(t *testing.T) {
	s := NewTypeSet(GPS, Baro)
	if !s.Has(GPS) || !s.Has(Baro) || s.Has(Gyro) {
		t.Errorf("membership wrong: %v", s)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	s.Add(Gyro)
	if !s.Has(Gyro) {
		t.Error("Add failed")
	}
	list := s.List()
	if len(list) != 3 || list[0] != GPS || list[1] != Gyro || list[2] != Baro {
		t.Errorf("List = %v", list)
	}
}

func TestTypeSetValueSemantics(t *testing.T) {
	a := NewTypeSet(GPS, Mag)
	b := a
	if b != a {
		t.Error("copy not equal")
	}
	b.Add(Baro)
	if a == b {
		t.Error("sets with different members compare equal")
	}
	if a.Has(Baro) {
		t.Error("a copy shares storage")
	}
	if NewTypeSet(Mag, GPS, GPS) != a {
		t.Error("== depends on insertion order or repeats")
	}
	b.Remove(GPS)
	b.Remove(Gyro) // not a member: no change
	if b != NewTypeSet(Mag, Baro) || b.Len() != 2 {
		t.Errorf("after Remove: %v (Len %d)", b, b.Len())
	}
	if All != NewTypeSet(AllTypes()...) || All.Len() != NumTypes {
		t.Errorf("All = %v (Len %d)", All, All.Len())
	}
	var out TypeSet
	out.Add(Type(0))
	out.Add(Baro + 1)
	out.Add(Type(-3))
	if out != 0 || out.Len() != 0 || out.Has(Type(0)) || out.Has(Baro+1) {
		t.Errorf("out-of-range types were added: %v", out)
	}
	if NewTypeSet(Type(9), GPS) != NewTypeSet(GPS) {
		t.Error("NewTypeSet kept an out-of-range type")
	}
	var empty TypeSet
	if empty.Len() != 0 || len(empty.List()) != 0 || empty.String() != "{}" {
		t.Errorf("empty set: Len %d, List %v, String %q", empty.Len(), empty.List(), empty.String())
	}
	if got := fmt.Sprintf("%v", NewTypeSet(Gyro, GPS)); got != "{GPS, gyroscope}" {
		t.Errorf("%%v = %q", got)
	}
}

func TestTypeSetString(t *testing.T) {
	if got := NewTypeSet(GPS).String(); got != "{GPS}" {
		t.Errorf("String = %q", got)
	}
	if got := NewTypeSet().String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestBiasTargets(t *testing.T) {
	tests := []struct {
		name string
		give Bias
		want TypeSet
	}{
		{name: "zero", give: Bias{}, want: NewTypeSet()},
		{name: "gps", give: Bias{GPSPos: [3]float64{5, 0, 0}}, want: NewTypeSet(GPS)},
		{name: "gyro", give: Bias{Gyro: [3]float64{0, 1, 0}}, want: NewTypeSet(Gyro)},
		{name: "accel", give: Bias{Accel: [3]float64{0, 0, 2}}, want: NewTypeSet(Accel)},
		{name: "mag", give: Bias{MagYaw: math.Pi}, want: NewTypeSet(Mag)},
		{name: "baro", give: Bias{Baro: 8}, want: NewTypeSet(Baro)},
		{
			name: "multi",
			give: Bias{GPSPos: [3]float64{5, 0, 0}, Baro: 8, MagYaw: 1},
			want: NewTypeSet(GPS, Mag, Baro),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.give.Targets(); got != tt.want {
				t.Errorf("Targets = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestBiasScale(t *testing.T) {
	b := Bias{GPSPos: [3]float64{10, 0, 0}, Baro: 4, MagYaw: 2}
	half := b.Scale(0.5)
	if half.GPSPos[0] != 5 || half.Baro != 2 || half.MagYaw != 1 {
		t.Errorf("Scale = %+v", half)
	}
	if !b.Scale(0).IsZero() {
		t.Error("Scale(0) should be zero bias")
	}
}

func TestMergeStates(t *testing.T) {
	var base, src PhysState
	for i := range base {
		base[i] = 1
		src[i] = 2
	}
	got := MergeStates(base, src, NewTypeSet(GPS))
	for _, idx := range StatesOf(GPS) {
		if got[idx] != 2 {
			t.Errorf("GPS state %v = %v, want 2", idx, got[idx])
		}
	}
	for _, idx := range StatesOf(Gyro) {
		if got[idx] != 1 {
			t.Errorf("gyro state %v = %v, want 1", idx, got[idx])
		}
	}
}

func TestPhysStateAbsDiffWrapsAngles(t *testing.T) {
	var a, b PhysState
	a[SYaw] = math.Pi - 0.01
	b[SYaw] = -math.Pi + 0.01
	d := a.AbsDiff(b)
	if d[SYaw] > 0.05 {
		t.Errorf("yaw diff across wrap = %v, want ≈0.02", d[SYaw])
	}
}

func TestPhysStateVehicleStateRoundTrip(t *testing.T) {
	s := vehicle.State{X: 1, Y: 2, Z: 3, VX: 4, VY: 5, VZ: 6, Roll: 0.1, Pitch: 0.2, Yaw: 0.3, WRoll: 0.4, WPitch: 0.5, WYaw: 0.6}
	p := TruePhysState(s, [3]float64{7, 8, 9}, [3]float64{0.1, 0.2, 0.3})
	if got := p.VehicleState(); got != s {
		t.Errorf("round trip: got %+v, want %+v", got, s)
	}
	if p[SAX] != 7 || p[SMagZ] != 0.3 || p[SBaroAlt] != 3 {
		t.Errorf("aux channels wrong: %+v", p)
	}
}

func noiselessProfile() vehicle.Profile {
	p := vehicle.MustProfile(vehicle.Pixhawk)
	p.Noise = vehicle.NoiseFloor{}
	return p
}

func TestSuiteNoiselessTracksTruth(t *testing.T) {
	s := NewSuite(noiselessProfile(), rand.New(rand.NewSource(1)))
	truth := vehicle.State{X: 3, Y: -2, Z: 10, VX: 1}
	dt := 0.01
	var est PhysState
	for i := 0; i < 200; i++ {
		est = s.Sample(float64(i)*dt, dt, truth, [3]float64{0, 0, 0}, Bias{})
	}
	if math.Abs(est[SX]-3) > 1e-9 || math.Abs(est[SZ]-10) > 1e-9 {
		t.Errorf("position estimate off: %v %v", est[SX], est[SZ])
	}
	if math.Abs(est[SBaroAlt]-10) > 1e-9 {
		t.Errorf("baro off: %v", est[SBaroAlt])
	}
}

func TestSuiteGPSBiasShiftsOnlyGPSStates(t *testing.T) {
	s := NewSuite(noiselessProfile(), rand.New(rand.NewSource(1)))
	truth := vehicle.State{Z: 10}
	dt := 0.01
	bias := Bias{GPSPos: [3]float64{20, 0, 0}}
	var est PhysState
	for i := 0; i < 100; i++ {
		est = s.Sample(float64(i)*dt, dt, truth, [3]float64{}, bias)
	}
	if math.Abs(est[SX]-20) > 1e-9 {
		t.Errorf("GPS x = %v, want 20", est[SX])
	}
	if math.Abs(est[SBaroAlt]-10) > 1e-9 {
		t.Errorf("baro should be unaffected: %v", est[SBaroAlt])
	}
	if est[SAX] != 0 {
		t.Errorf("accel should be unaffected: %v", est[SAX])
	}
}

func TestSuiteGyroBiasCorruptsAttitude(t *testing.T) {
	s := NewSuite(noiselessProfile(), rand.New(rand.NewSource(1)))
	truth := vehicle.State{Z: 10}
	dt := 0.01
	bias := Bias{Gyro: [3]float64{0.5, 0, 0}}
	var est PhysState
	for i := 0; i < 200; i++ {
		est = s.Sample(float64(i)*dt, dt, truth, [3]float64{}, bias)
	}
	// 0.5 rad/s over ~2 s ≈ 1 rad of roll error.
	if est[SRoll] < 0.5 {
		t.Errorf("gyro rate bias did not corrupt roll: %v", est[SRoll])
	}
	if math.Abs(est[SWRoll]-0.5) > 1e-9 {
		t.Errorf("rate state = %v, want 0.5", est[SWRoll])
	}
}

func TestSuiteMagYawAttackRotatesField(t *testing.T) {
	s := NewSuite(noiselessProfile(), rand.New(rand.NewSource(1)))
	truth := vehicle.State{Z: 10}
	dt := 0.01
	var clean, attacked PhysState
	for i := 0; i < 50; i++ {
		clean = s.Sample(float64(i)*dt, dt, truth, [3]float64{}, Bias{})
	}
	s2 := NewSuite(noiselessProfile(), rand.New(rand.NewSource(1)))
	for i := 0; i < 50; i++ {
		attacked = s2.Sample(float64(i)*dt, dt, truth, [3]float64{}, Bias{MagYaw: math.Pi})
	}
	// 180° flip negates the horizontal field components.
	if math.Abs(attacked[SMagX]+clean[SMagX]) > 1e-9 {
		t.Errorf("mag x: clean %v attacked %v", clean[SMagX], attacked[SMagX])
	}
	if math.Abs(attacked[SMagZ]-clean[SMagZ]) > 1e-9 {
		t.Errorf("vertical field should be invariant: %v vs %v", clean[SMagZ], attacked[SMagZ])
	}
}

func TestSuiteSampleRatesHold(t *testing.T) {
	// GPS at 10 Hz must hold between 100 Hz ticks.
	p := noiselessProfile()
	s := NewSuite(p, rand.New(rand.NewSource(1)))
	dt := 0.01
	truth := vehicle.State{X: 0}
	s.Sample(0, dt, truth, [3]float64{}, Bias{})
	// Move the vehicle; GPS should not see it until its next sample slot.
	truth.X = 100
	est := s.Sample(dt, dt, truth, [3]float64{}, Bias{})
	if est[SX] != 0 {
		t.Errorf("GPS updated too soon: %v", est[SX])
	}
	est = s.Sample(0.1, dt, truth, [3]float64{}, Bias{})
	if est[SX] != 100 {
		t.Errorf("GPS did not update at its slot: %v", est[SX])
	}
}

func TestBodyFieldYawZero(t *testing.T) {
	f := BodyField(0)
	if f != EarthField {
		t.Errorf("BodyField(0) = %v, want %v", f, EarthField)
	}
}

// Property: merging with the empty set is the identity; merging with all
// types replaces everything.
func TestPropertyMergeExtremes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var base, src PhysState
		for i := range base {
			base[i] = r.NormFloat64()
			src[i] = r.NormFloat64()
		}
		if MergeStates(base, src, NewTypeSet()) != base {
			return false
		}
		return MergeStates(base, src, NewTypeSet(AllTypes()...)) == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Targets of a scaled (non-zero-factor) bias equals Targets of
// the original.
func TestPropertyScalePreservesTargets(t *testing.T) {
	f := func(gx, gy, gz, ax float64, baro float64) bool {
		b := Bias{GPSPos: [3]float64{gx, gy, gz}, Accel: [3]float64{ax, 0, 0}, Baro: baro}
		return b.Scale(0.5).Targets() == b.Targets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTypeString(t *testing.T) {
	if GPS.String() != "GPS" || Baro.String() != "barometer" {
		t.Error("Type.String wrong")
	}
	if Type(42).String() == "" {
		t.Error("unknown type should stringify")
	}
}

func TestStateIndexString(t *testing.T) {
	if SX.String() != "x" || SBaroAlt.String() != "alt" {
		t.Error("StateIndex.String wrong")
	}
	if StateIndex(-1).String() == "" {
		t.Error("out-of-range index should stringify")
	}
}
